package main

// metricDef is one metric as BENCHMARK.json declares it. Bound applies
// to end-to-end metrics only: the share of the baseline median by which
// the metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them: the sim_* values are properties of the kernel's
// delivery paths, not of the workload, and are measured on every run
// (on paper as its timed output, elsewhere after the timed phase) so a
// kernel change shows wherever it is benchmarked.
//
// On the shared 2-CPU host the benchmark was written on, the CPU time a
// fixed piece of work takes drifts by up to 20% over minutes as other
// tenants load the machine (steal time and contention for the cores),
// so two sets of ten runs minutes apart differed by up to 21% in host
// time and single sets spread by up to 21% (interquartile range over
// median). Host-time metrics therefore get the widest bound allowed;
// --compare also flags a slowdown inside the bound when the two sets'
// interquartile ranges do not overlap. Memory is steadier, and the
// simulated figures repeat exactly.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.1},
	{"live_heap_mb", "MB", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"sim_ultrix_rt_cycles", "cycles", "lower", 0.01},
	{"sim_fast_rt_cycles", "cycles", "lower", 0.01},
	{"sim_hw_rt_cycles", "cycles", "lower", 0.01},
	{"sim_fast_deliver_cycles", "cycles", "lower", 0.01},
	{"sim_fast_wprot_rt_cycles", "cycles", "lower", 0.01},
	{"sim_fast_kernel_insts", "insts", "lower", 0.01},
}

// perLayer are the traced run's metrics, one or more per layer, top
// down. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"server.admit_ms.p50", "ms", "lower", 0},
	{"server.overhead_ms.p50", "ms", "lower", 0},
	{"server.exec_ms.p50", "ms", "lower", 0},
	{"server.exec_ms.p90", "ms", "lower", 0},
	{"server.stream_kb_per_job", "KB", "lower", 0},
	{"server.retries_429", "count", "lower", 0},
	{"harness.self_us_per_op", "us", "lower", 0},
	{"difftest.self_us_per_op", "us", "lower", 0},
	{"progen.generate_us.p50", "us", "lower", 0},
	{"asm.assemble_ms.p50", "ms", "lower", 0},
	{"asm.alloc_kb_per_call", "KB", "lower", 0},
	{"core.boot_ms", "ms", "lower", 0},
	{"core.get_reset_us.p50", "us", "lower", 0},
	{"core.get_restore_us.p50", "us", "lower", 0},
	{"core.fork_us.p50", "us", "lower", 0},
	{"core.restore_pages", "pages", "lower", 0},
	{"core.load_us.p50", "us", "lower", 0},
	{"faultinject.attach_us.p50", "us", "lower", 0},
	{"kernel.phase.decode", "insts", "lower", 0},
	{"kernel.phase.compat", "insts", "lower", 0},
	{"kernel.phase.save", "insts", "lower", 0},
	{"kernel.phase.fpcheck", "insts", "lower", 0},
	{"kernel.phase.tlbcheck", "insts", "lower", 0},
	{"kernel.phase.vector", "insts", "lower", 0},
	{"cpu.run_ms.p50", "ms", "lower", 0},
	{"cpu.sim_mips", "Minst/s", "higher", 0},
	{"cpu.sim_insts_per_op", "count", "lower", 0},
	{"cpu.sim_cycles_per_op", "count", "lower", 0},
	{"cpu.jit_execs_per_op", "count", "higher", 0},
	{"cpu.jit_compiles_per_op", "count", "lower", 0},
	{"cpu.jit_invalidations_per_op", "count", "lower", 0},
	{"cpu.jit_guard_misses_per_op", "count", "lower", 0},
	{"cpu.utlb_hits_per_op", "count", "higher", 0},
	{"tlb.misses_per_op", "count", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.heap_growth_kb_per_op", "KB", "lower", 0},
	{"trace.overhead_us_per_op", "us", "lower", 0},
}
