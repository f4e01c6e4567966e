package journal

// RecordView is the JSON rendering of one record: the record lines of
// `hwtrace tail -raw` NDJSON. The json tags are the live-telemetry
// record vocabulary scripts key on; cmd/hwtrace pins one rendered line
// as a golden.
type RecordView struct {
	TS   int64  `json:"ts"` // wall clock, nanoseconds since the Unix epoch
	Kind string `json:"kind"`
	Txn  int64  `json:"txn"`
	// Arg is the kind-specific payload: queue depth (block), wait ns
	// (grant), waited-by txn (cycle-edge), op tag (op-tag), ...
	Arg      uint64 `json:"arg,omitempty"`
	Resource string `json:"resource,omitempty"`
	RHash    uint64 `json:"rhash,omitempty"` // stable resource identity
	Mode     string `json:"mode,omitempty"`
	Shard    uint8  `json:"shard"`
	Aux      uint32 `json:"aux,omitempty"` // activation sequence, cycles, ...
	Conv     bool   `json:"conv,omitempty"`
	Try      bool   `json:"try,omitempty"`
}

// View renders the record for JSON exposition.
func (r *Record) View() RecordView {
	v := RecordView{
		TS:    r.TS,
		Kind:  r.Kind.String(),
		Txn:   r.Txn,
		Arg:   r.Arg,
		RHash: r.RHash,
		Shard: r.Shard,
		Aux:   r.Aux,
		Conv:  r.Flags&FlagConversion != 0,
		Try:   r.Flags&FlagTry != 0,
	}
	if res := r.Resource(); res != "" {
		v.Resource = res
	}
	if r.Mode != 0 {
		v.Mode = r.ModeString()
	}
	return v
}
