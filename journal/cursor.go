package journal

// Cursor-based ring reads: the live-telemetry layer (the lockservice
// TAIL verb) tails the rings with a per-ring sequence position instead of re-snapshotting,
// so a consumer that reconnects resumes exactly where it left off and
// every record it missed to ring overwrite is accounted for explicitly
// rather than silently absent. Reads copy each slot under its lock
// word, as Snapshot does; tailing adds no work and no allocations on
// the writer side beyond the brief wait of a writer that laps onto the
// slot being copied.

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
//     publishes — so an in-flight record is never skipped over. A slot
//     whose lock word stays held (its writer mid-copy) stops the read
//     the same way.
//   - Lag is explicit: when seq has already been overwritten (the
//     consumer fell more than Cap() records behind), the read restarts
//     at the oldest retained record and lost counts the overwritten
//     span. Every record delivered is whole: it is copied under its
//     slot's lock word.
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
		ok, gone := r.slots[seq&r.mask].read(seq, &w)
		if gone {
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
		if !ok {
			// Claimed (or never written) but not yet published, or held
			// by its writer: the record is still in flight. Stop here; it
			// is delivered next call.
			break
		}
		var rec Record
		rec.unpack(&w)
		dst = append(dst, rec)
		n++
		seq++
	}
	return dst, seq, lost
}
