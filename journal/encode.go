package journal

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"

	"hwtwbg/internal/lock"
)

// The dump encoding is the packed seven-word record, little-endian,
// preceded by an 8-byte magic header. It is what /journal.bin serves
// and what cmd/hwtrace replays; the wire TAIL stream carries the same
// packed records, base64 per record line and no header (MarshalText).

// dumpMagic is the dump header: format name plus version.
var dumpMagic = [8]byte{'H', 'W', 'J', 'R', 'N', 'L', '0', '1'}

// Encode writes the dump header followed by every record.
func Encode(w io.Writer, recs []Record) error {
	if _, err := w.Write(dumpMagic[:]); err != nil {
		return err
	}
	var buf [recordBytes]byte
	var words [recordWords]uint64
	for i := range recs {
		recs[i].pack(&words)
		for k, v := range words {
			binary.LittleEndian.PutUint64(buf[8*k:], v)
		}
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads a dump produced by Encode until EOF.
func Decode(r io.Reader) ([]Record, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("journal: reading dump header: %w", err)
	}
	if magic != dumpMagic {
		return nil, fmt.Errorf("journal: bad dump magic %q", magic[:])
	}
	var out []Record
	var buf [recordBytes]byte
	for {
		_, err := io.ReadFull(r, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("journal: truncated dump record %d: %w", len(out), err)
		}
		var rec Record
		if err := rec.decode(&buf); err != nil {
			return nil, fmt.Errorf("journal: dump record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// decode unpacks one record from its little-endian dump form. It
// refuses a mode byte that no writer emits, because the views index
// the mode tables with it; a kind the views do not know, they ignore.
func (r *Record) decode(buf *[recordBytes]byte) error {
	var words [recordWords]uint64
	for k := range words {
		words[k] = binary.LittleEndian.Uint64(buf[8*k:])
	}
	r.unpack(&words)
	if !lock.Mode(r.Mode).Valid() {
		return fmt.Errorf("mode %d is not a lock mode", r.Mode)
	}
	return nil
}

// MarshalText renders one record as base64 of its packed form — a
// record line of the wire TAIL stream.
func (r *Record) MarshalText() ([]byte, error) {
	var words [recordWords]uint64
	r.pack(&words)
	var buf [recordBytes]byte
	for k, v := range words {
		binary.LittleEndian.PutUint64(buf[8*k:], v)
	}
	out := make([]byte, base64.StdEncoding.EncodedLen(recordBytes))
	base64.StdEncoding.Encode(out, buf[:])
	return out, nil
}

// UnmarshalText parses the base64 line format back into a record.
func (r *Record) UnmarshalText(text []byte) error {
	// Decode panics on a buffer too short for its input, so an
	// over-long line is refused first, and the buffer has room for the
	// one extra byte a full-length line without padding decodes to.
	var buf [recordBytes + 1]byte
	if want := base64.StdEncoding.EncodedLen(recordBytes); len(text) > want {
		return fmt.Errorf("journal: record line is %d characters, want %d", len(text), want)
	}
	n, err := base64.StdEncoding.Decode(buf[:], text)
	if err != nil {
		return fmt.Errorf("journal: bad record line: %w", err)
	}
	if n != recordBytes {
		return fmt.Errorf("journal: record line is %d bytes, want %d", n, recordBytes)
	}
	var rec Record
	if err := rec.decode((*[recordBytes]byte)(buf[:recordBytes])); err != nil {
		return fmt.Errorf("journal: record line: %w", err)
	}
	*r = rec
	return nil
}

// String renders a one-line human-readable form for logs and hwtrace.
func (r *Record) String() string {
	s := fmt.Sprintf("%s txn=%d", r.Kind, r.Txn)
	if res := r.Resource(); res != "" {
		s += " res=" + res
	}
	if r.Mode != 0 {
		s += " mode=" + r.ModeString()
	}
	switch r.Kind {
	case KindBlock:
		s += fmt.Sprintf(" depth=%d", r.Arg)
	case KindGrant:
		s += fmt.Sprintf(" wait=%dns", r.Arg)
	case KindDetect:
		s += fmt.Sprintf(" total=%dns cycles=%d", r.Arg, r.Aux)
	case KindDetectCopy:
		s += fmt.Sprintf(" copied=%d skipped=%d", r.Arg, r.Aux)
	case KindCycleEdge:
		s += fmt.Sprintf(" waited_by=%d act=%d", r.Arg, r.Aux)
	case KindOpTag:
		s += fmt.Sprintf(" tag=%d", r.Arg)
	case KindVictim, KindReposition, KindSalvage:
		s += fmt.Sprintf(" act=%d", r.Aux)
	}
	if r.Flags&FlagConversion != 0 {
		s += " conv"
	}
	return s
}
