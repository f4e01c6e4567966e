package table

// The random-table generator of quick_test.go, for the external test
// package: equivalence_test.go runs the detector and the graph builder
// over these tables, and both import this package.

type OpSeq = opSeq

var (
	OpRequest     = opRequest
	ReplaySharded = replaySharded
	ApplyOps      = applyOps
)
