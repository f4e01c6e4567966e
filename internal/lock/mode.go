// Package lock defines the five lock modes of the multiple granularity
// locking (MGL) protocol used throughout the library, together with the
// compatibility matrix (Table 1 of the paper) and the conversion matrix
// (Table 2 of the paper).
//
// The modes are those of Gray's MGL protocol: IS (intention shared),
// IX (intention exclusive), S (shared), SIX (shared with intention
// exclusive) and X (exclusive), plus NL (no lock) as the identity.
package lock

import (
	"errors"
	"fmt"
	"strconv"
)

// Mode is one of the six lock modes of Section 2 of the paper.
// The zero value is NL (no lock).
type Mode uint8

// Lock modes in order of increasing exclusiveness along the conversion
// lattice NL < IS < {IX, S} < SIX < X. The numeric order of IX and S is
// arbitrary; use Conv to join modes, not <.
const (
	NL  Mode = iota // no lock
	IS              // intention shared
	IX              // intention exclusive
	SIX             // shared with intention exclusive
	S               // shared
	X               // exclusive

	numModes = 6
)

// Modes lists all six modes in the order Table 1 and Table 2 print them.
var Modes = [numModes]Mode{NL, IS, IX, SIX, S, X}

var modeNames = [numModes]string{"NL", "IS", "IX", "SIX", "S", "X"}

// String returns the paper's spelling of the mode ("NL", "IS", "IX",
// "SIX", "S" or "X").
func (m Mode) String() string {
	if !m.Valid() {
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
	return modeNames[m]
}

// Valid reports whether m is one of the six defined modes.
func (m Mode) Valid() bool { return m < numModes }

// Parse converts a mode name as printed in the paper (case sensitive:
// "NL", "IS", "IX", "SIX", "S", "X") back into a Mode. s does not
// escape, so the wire server parses a mode from request bytes without
// allocating.
func Parse(s string) (Mode, error) {
	for i, name := range modeNames {
		if s == name {
			return Mode(i), nil
		}
	}
	return NL, errors.New("lock: unknown lock mode " + strconv.Quote(s))
}

// MustParse is Parse but panics on invalid input. It is intended for
// tests and package-level tables built from literals.
func MustParse(s string) Mode {
	m, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return m
}

// comp is Table 1 of the paper: comp[a][b] reports whether two lock
// requests for the same resource by two different transactions can be
// granted concurrently.
var comp = [numModes][numModes]bool{
	NL:  {NL: true, IS: true, IX: true, SIX: true, S: true, X: true},
	IS:  {NL: true, IS: true, IX: true, SIX: true, S: true, X: false},
	IX:  {NL: true, IS: true, IX: true, SIX: false, S: false, X: false},
	SIX: {NL: true, IS: true, IX: false, SIX: false, S: false, X: false},
	S:   {NL: true, IS: true, IX: false, SIX: false, S: true, X: false},
	X:   {NL: true, IS: false, IX: false, SIX: false, S: false, X: false},
}

// conv is Table 2 of the paper: conv[granted][requested] is the mode a
// transaction eventually wants to hold when it already holds the row
// mode and re-requests the column mode. It is the join (least upper
// bound) in the mode lattice.
var conv = [numModes][numModes]Mode{
	NL:  {NL: NL, IS: IS, IX: IX, SIX: SIX, S: S, X: X},
	IS:  {NL: IS, IS: IS, IX: IX, SIX: SIX, S: S, X: X},
	IX:  {NL: IX, IS: IX, IX: IX, SIX: SIX, S: SIX, X: X},
	SIX: {NL: SIX, IS: SIX, IX: SIX, SIX: SIX, S: SIX, X: X},
	S:   {NL: S, IS: S, IX: SIX, SIX: SIX, S: S, X: X},
	X:   {NL: X, IS: X, IX: X, SIX: X, S: X, X: X},
}

// Comp reports whether lock modes a and b are compatible, i.e. whether
// they can be held concurrently on the same resource by two different
// transactions (Table 1). Comp is symmetric and Comp(NL, m) is true for
// every m.
func Comp(a, b Mode) bool { return comp[a][b] }

// Conv returns the mode resulting from converting a lock granted in mode
// granted to additionally cover mode requested (Table 2). Conv is
// commutative, associative and idempotent with identity NL, so it can be
// folded over any number of modes in any order.
func Conv(granted, requested Mode) Mode { return conv[granted][requested] }

// Join folds Conv over any number of modes. Join() is NL.
func Join(ms ...Mode) Mode {
	j := NL
	for _, m := range ms {
		j = Conv(j, m)
	}
	return j
}

// Covers reports whether holding mode a makes a separate request for
// mode b redundant, i.e. Conv(a, b) == a.
func Covers(a, b Mode) bool { return conv[a][b] == a }

// Stronger reports whether a is strictly more exclusive than b in the
// conversion lattice: a covers b and a != b.
func Stronger(a, b Mode) bool { return a != b && Covers(a, b) }
