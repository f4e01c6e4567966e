package main

// spinRef is the in-run reference of the workload that is bound by the
// processor and its caches: a fixed arithmetic-and-memory loop per load
// goroutine. It follows what the host gives this process (clock, steal, a
// busy sibling thread); over 10 s windows the ratio to it spread less than
// raw throughput did, and less than the ratio to a random walk over 4 MB or
// to a mutex-and-map miniature of the store.
type spinRef struct {
	tables [][]uint32
	x      []uint32
}

const spinTable = 1 << 12 // 16 KiB of uint32 per goroutine: L1-resident, so a burst does not start by refilling a cache the transactions emptied

func newSpinRef(goroutines int) *spinRef {
	s := &spinRef{tables: make([][]uint32, goroutines), x: make([]uint32, goroutines*16)}
	for g := range s.tables {
		t := make([]uint32, spinTable)
		x := uint32(g + 1)
		for i := range t {
			x = x*1664525 + 1013904223
			t[i] = x
		}
		s.tables[g] = t
	}
	return s
}

// spinSteps is the length of a unit: dependent steps of one multiply-add and
// one table load each, some ten microseconds, the order of a transaction.
const spinSteps = 8192

// unit runs one unit on goroutine g's table.
func (s *spinRef) unit(g int) {
	t, x := s.tables[g], s.x[g*16] // 16 words apart: one cache line per goroutine
	for i := 0; i < spinSteps; i++ {
		x = x*1664525 + t[x>>20]
	}
	s.x[g*16] = x
}
