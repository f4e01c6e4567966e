package journal

// Cursor-based ring reads: the live-telemetry layer (the lockservice
// TAIL verb) tails the rings with a per-ring sequence position instead of re-snapshotting,
// so a consumer that reconnects resumes exactly where it left off and
// every record it missed to ring overwrite is accounted for explicitly
// rather than silently absent. Reads reuse the checksum-validated slot
// protocol of Snapshot; Emit is untouched — tailing adds no hot-path
// work and no allocations on the writer side.

// Head returns the ring's current head sequence: the position a tail
// session starting "now" resumes from (the next record emitted will
// have this sequence).
func (r *Ring) Head() uint64 { return r.at.load() }

// Oldest returns the sequence of the oldest record still retained (the
// position a tail session starting from the beginning of the retained
// window resumes from).
func (r *Ring) Oldest() uint64 {
	hi := r.at.load()
	if hi > uint64(len(r.slots)) {
		return hi - uint64(len(r.slots))
	}
	return 0
}

// ReadFrom appends committed records to dst starting at sequence seq,
// up to max records (max <= 0 means no bound beyond the ring), and
// returns the extended slice, the cursor to resume from, and how many
// records between seq and that cursor are gone for good.
//
// The contract a tail consumer relies on:
//
//   - No silent gaps: every sequence in [seq, next) is either appended
//     to dst or counted in lost. A slot that has been claimed by a
//     writer but not yet published stops the read — next points at it,
//     and the record is delivered by a later call once the writer
//     publishes — so an in-flight record is never skipped over.
//   - Lag is explicit: when seq has already been overwritten (the
//     consumer fell more than Cap() records behind), the read restarts
//     at the oldest retained record and lost counts the overwritten
//     span. A record torn mid-copy by a lapping writer is likewise
//     counted lost (and in Stats.TornReads), never surfaced corrupt.
//   - Monotone: next >= seq always, and calling again from next never
//     re-delivers a record already returned.
func (r *Ring) ReadFrom(seq uint64, max int, dst []Record) (recs []Record, next uint64, lost uint64) {
	hi := r.at.load()
	if lo := r.Oldest(); seq < lo {
		lost += lo - seq
		seq = lo
	}
	var w [recordWords]uint64
	n := 0
	for seq < hi {
		if max > 0 && n >= max {
			break
		}
		s := &r.slots[seq&r.mask]
		c := s.commit()
		if c < seq+1 {
			// Claimed (or never written) but not yet published: the record
			// is still in flight. Stop here; it is delivered next call.
			break
		}
		if c > seq+1 {
			// Already overwritten by a later lap: this record is gone.
			// Everything up to the new oldest is gone with it.
			lo := r.Oldest()
			if lo <= seq {
				lo = seq + 1 // racing writer; give up on this slot alone
			}
			lost += lo - seq
			seq = lo
			continue
		}
		for i := range w {
			w[i] = s.loadPayload(i)
		}
		sum := s.loadSum()
		if s.commit() != seq+1 || sum != checksum(seq, &w) {
			// Torn by a lapping writer mid-copy: rejected by the checksum,
			// counted, never surfaced.
			r.at.noteTorn()
			lost++
			seq++
			continue
		}
		var rec Record
		rec.unpack(&w)
		dst = append(dst, rec)
		n++
		seq++
	}
	return dst, seq, lost
}
