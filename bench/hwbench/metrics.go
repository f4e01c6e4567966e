package main

// metricDef mirrors one entry of BENCHMARK.json; the drift test holds the
// two lists equal in both directions.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, each with the relative
// worsening that counts as a regression. Every workload reports every one.
var endToEnd = []metricDef{
	{"txn_cost", "x", lower, 0.10},
	{"allocs_per_txn", "count", lower, 0.02},
	{"live_heap_mb", "MB", lower, 0.10},
	{"setup_s", "s", lower, 0.25},
}

// perLayer has no bounds: these say where an end-to-end number came from.
// A name whose layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"lock.compconv_ns", "ns", lower, 0},

	{"table.grant_release_ns", "ns", lower, 0},
	{"table.block_handoff_ns", "ns", lower, 0},
	{"table.allocs_per_request", "count", lower, 0},
	{"table.copyshard_us", "us", lower, 0},
	{"table.shardclean_ns", "ns", lower, 0},

	{"twbg.build_us", "us", lower, 0},
	{"twbg.edges", "count", lower, 0},

	{"detect.run_us.chain1600", "us", lower, 0},
	{"detect.run_us.rings80", "us", lower, 0},
	{"detect.run_us.tiles32", "us", lower, 0},
	{"detect.edge_visits.rings80", "count", lower, 0},
	{"detect.allocs_per_run.chain100", "count", lower, 0},

	{"manager.lock_commit_ns", "ns", lower, 0},
	{"manager.lockall8_ns", "ns", lower, 0},
	{"manager.handoff_us", "us", lower, 0},
	{"manager.allocs_per_lock", "count", lower, 0},
	{"manager.mutex_rounds_per_txn", "count", lower, 0},
	{"manager.flat_combined_share", "ratio", higher, 0},
	{"manager.locks_per_txn", "count", lower, 0},
	{"manager.blocked_share", "ratio", lower, 0},

	{"manager.detect.activations", "count", lower, 0},
	{"manager.detect.acquire_us", "us", lower, 0},
	{"manager.detect.copy_us", "us", lower, 0},
	{"manager.detect.build_us", "us", lower, 0},
	{"manager.detect.search_us", "us", lower, 0},
	{"manager.detect.resolve_us", "us", lower, 0},
	{"manager.detect.validate_us", "us", lower, 0},
	{"manager.detect.wake_us", "us", lower, 0},
	{"manager.detect.total_us", "us", lower, 0},
	{"manager.detect.unattributed_us", "us", lower, 0},
	{"manager.detect.report_us", "us", lower, 0},
	{"manager.detect.max_shard_hold_us", "us", lower, 0},
	{"manager.detect.vertices", "count", lower, 0},
	{"manager.detect.edges", "count", lower, 0},
	{"manager.detect.edge_visits", "count", lower, 0},
	{"manager.detect.cycles", "count", lower, 0},
	{"manager.detect.validations", "count", lower, 0},
	{"manager.detect.false_cycles", "count", lower, 0},
	{"manager.detect.shards_copied", "count", lower, 0},
	{"manager.detect.shards_skipped_share", "ratio", higher, 0},

	{"journal.emit_ns", "ns", lower, 0},
	{"journal.snapshot_us", "us", lower, 0},
	{"journal.emitted_per_txn", "count", lower, 0},
	{"journal.overwritten_share", "ratio", lower, 0},

	{"kv.get_ns", "ns", lower, 0},
	{"kv.put_commit_ns", "ns", lower, 0},

	{"lockservice.ping_rtt_x", "x", lower, 0},
	{"lockservice.lock_rtt_x", "x", lower, 0},
	{"lockservice.lockall8_rtt_x", "x", lower, 0},
	{"lockservice.commit_rtt_x", "x", lower, 0},
	{"lockservice.verbs_per_txn", "count", lower, 0},
	{"lockservice.bytes_per_txn", "count", lower, 0},
	{"lockservice.allocs_per_rtt", "count", lower, 0},
	{"lockservice.wire_over_embedded_x", "x", lower, 0},
	{"lockservice.begin_p50_us", "us", lower, 0},
	{"lockservice.lock_p50_us", "us", lower, 0},
	{"lockservice.lockall_p50_us", "us", lower, 0},
	{"lockservice.commit_p50_us", "us", lower, 0},

	{"client.txn_per_s", "1/s", higher, 0},
	{"client.txn_p50_us", "us", lower, 0},
	{"client.txn_p99_us", "us", lower, 0},
	{"client.cpu_us_per_txn", "us", lower, 0},
	{"client.cpu_cost", "x", lower, 0},
	{"client.txn_p50_cost", "x", lower, 0},
	{"client.activation_p50_us", "us", lower, 0},
	{"client.aborts_per_deadlock", "count", lower, 0},
	{"ref.echo_rtt_us", "us", lower, 0},
	{"ref.spin_unit_us", "us", lower, 0},
	{"ref.blend_unit_us", "us", lower, 0},
	{"ref.time_share", "ratio", lower, 0},

	{"trace.client_share", "ratio", lower, 0},
	{"trace.lockservice_share", "ratio", lower, 0},
	{"trace.kv_share", "ratio", lower, 0},
	{"trace.manager_share", "ratio", lower, 0},
	{"trace.detector_share", "ratio", lower, 0},
	{"trace.overhead_x", "x", lower, 0},
	{"trace.spans", "count", lower, 0},
}
