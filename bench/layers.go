package main

// perLayer are the traced run's metrics, one group per module of the
// repo (layer = module name). Each is measured from this package by
// timing calls into the module's public functions, mostly as a
// difference of two runs that differ only in that layer. README.md says
// which end-to-end metric each should move, on which workload.
//
// Exact marks counts produced by the program that must repeat exactly
// between two runs of one commit; -compare fails if one differs.
var perLayer = []metricDef{
	// workload: the analogs' own driver logic (arithmetic, RNG, control
	// flow) — a drive minus a replay of the same operations.
	{Name: "workload.driver_self_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.ops", Unit: "count", Better: "lower", Exact: true},
	// vm: event dispatch and allocation with no collector attached.
	{Name: "vm.replay_none_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "vm.shard_new_us", Unit: "us", Better: "lower"},
	{Name: "vm.shard_reset_us", Unit: "us", Better: "lower"},
	// core: the contaminated collector's bookkeeping.
	{Name: "core.bookkeeping_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recycle_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.opt_skips", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.popped", Unit: "count", Better: "higher", Exact: true},
	// unionfind: both forest representations on one seeded script.
	{Name: "unionfind.dsu_union_ns", Unit: "ns", Better: "lower"},
	{Name: "unionfind.dsu_find_ns", Unit: "ns", Better: "lower"},
	{Name: "unionfind.packed_union_ns", Unit: "ns", Better: "lower"},
	{Name: "unionfind.packed_find_ns", Unit: "ns", Better: "lower"},
	// msa: the traditional collector's cycles at tight heaps.
	{Name: "msa.cycles", Unit: "count", Better: "lower", Exact: true},
	{Name: "msa.cycle_ms", Unit: "ms", Better: "lower"},
	{Name: "msa.mark_ms", Unit: "ms", Better: "lower"},
	{Name: "msa.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "msa.pause_p95_us", Unit: "us", Better: "lower"},
	{Name: "msa.pause_max_us", Unit: "us", Better: "lower"},
	{Name: "msa.marked", Unit: "count", Better: "lower", Exact: true},
	{Name: "msa.freed", Unit: "count", Better: "higher", Exact: true},
	{Name: "msa.edge_visits", Unit: "count", Better: "lower", Exact: true},
	{Name: "msa.max_workers", Unit: "count", Better: "higher"},
	// gengc: the generational baseline.
	{Name: "gengc.cycles", Unit: "count", Better: "lower", Exact: true},
	{Name: "gengc.cycle_ms", Unit: "ms", Better: "lower"},
	{Name: "gengc.barrier_delta_ms", Unit: "ms", Better: "lower"},
	// heap: the slab arena, handle table and byte reserve.
	{Name: "heap.alloc_ns", Unit: "ns", Better: "lower"},
	{Name: "heap.free_ns", Unit: "ns", Better: "lower"},
	{Name: "heap.new_us", Unit: "us", Better: "lower"},
	{Name: "heap.reset_us", Unit: "us", Better: "lower"},
	{Name: "heap.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "heap.reserve_pair_ns", Unit: "ns", Better: "lower"},
	// tape: what recording costs and what replaying saves, under cg.
	{Name: "tape.record_premium_ms", Unit: "ms", Better: "lower"},
	{Name: "tape.replay_saving_ms", Unit: "ms", Better: "higher"},
	{Name: "tape.replay_loses", Unit: "count", Better: "lower"},
	{Name: "tape.bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "tape.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "tape.decode_ms", Unit: "ms", Better: "lower"},
	// engine: the worker pool around the cells.
	{Name: "engine.cell_overhead_us", Unit: "us", Better: "lower"},
	{Name: "engine.sweep_wall_1w_s", Unit: "s", Better: "lower"},
	{Name: "engine.scaling_eff", Unit: "ratio", Better: "higher"},
	{Name: "engine.tape_recorded", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.tape_replayed", Unit: "count", Better: "higher", Exact: true},
	{Name: "engine.useful_cell_ratio", Unit: "ratio", Better: "higher", Exact: true},
	// experiments: figure description and rendering.
	{Name: "experiments.render_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.cells", Unit: "count", Better: "lower", Exact: true},
	{Name: "experiments.unique_keys", Unit: "count", Better: "lower", Exact: true},
	// results: the outcome codec and the store.
	{Name: "results.extract_us", Unit: "us", Better: "lower"},
	{Name: "results.encode_us", Unit: "us", Better: "lower"},
	{Name: "results.decode_us", Unit: "us", Better: "lower"},
	{Name: "results.key_us", Unit: "us", Better: "lower"},
	{Name: "results.outcome_bytes", Unit: "bytes", Better: "lower"},
	{Name: "results.store_put_us", Unit: "us", Better: "lower"},
	{Name: "results.store_get_us", Unit: "us", Better: "lower"},
	// dist: worker processes and their protocol.
	{Name: "dist.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.roundtrip_us", Unit: "us", Better: "lower"},
	// serve: the scheduler and the HTTP surface.
	{Name: "serve.sweep_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cell_get_tail_us", Unit: "us", Better: "lower"},
	{Name: "serve.cell_304_us", Unit: "us", Better: "lower"},
	{Name: "serve.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.stored_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.sched_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	// obs: provenance capture, paid once per extracted cell.
	{Name: "obs.capture_ns", Unit: "ns", Better: "lower"},
	// span.*: self time per span name over the traced walk of the
	// workload's own cells, and the walk's cost of being traced: as the
	// difference between the traced and the untraced walk (which the
	// walk's own run-to-run variation swamps), and as the measured cost
	// of opening and closing one span.
	{Name: "span.figure_self_ms", Unit: "ms", Better: "lower"},
	{Name: "span.cell_self_ms", Unit: "ms", Better: "lower"},
	{Name: "span.shard_new_ms", Unit: "ms", Better: "lower"},
	{Name: "span.heap_new_ms", Unit: "ms", Better: "lower"},
	{Name: "span.shard_reset_ms", Unit: "ms", Better: "lower"},
	{Name: "span.drive_ms", Unit: "ms", Better: "lower"},
	{Name: "span.record_ms", Unit: "ms", Better: "lower"},
	{Name: "span.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "span.quiesce_ms", Unit: "ms", Better: "lower"},
	{Name: "span.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "span.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "span.store_put_ms", Unit: "ms", Better: "lower"},
	{Name: "span.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "span.store_get_ms", Unit: "ms", Better: "lower"},
	{Name: "span.render_row_ms", Unit: "ms", Better: "lower"},
	{Name: "span.count", Unit: "count", Better: "lower", Exact: true},
	{Name: "span.cost_ns", Unit: "ns", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	// host: the reference loop of calib.go, so that two traced runs taken
	// at different host speeds can be read against each other. The
	// per-layer times themselves are as measured, not scaled.
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
}

// spanNames maps each span name to its metric.
var spanNames = map[string]string{
	"figure": "span.figure_self_ms", "cell": "span.cell_self_ms",
	"shard_new": "span.shard_new_ms", "heap_new": "span.heap_new_ms", "shard_reset": "span.shard_reset_ms",
	"drive": "span.drive_ms", "record": "span.record_ms", "replay": "span.replay_ms",
	"quiesce": "span.quiesce_ms", "extract": "span.extract_ms", "encode": "span.encode_ms",
	"store_put": "span.store_put_ms", "decode": "span.decode_ms", "store_get": "span.store_get_ms",
	"render_row": "span.render_row_ms",
}
