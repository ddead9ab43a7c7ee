package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"uexc/internal/core"
)

// runCfg is one benchmark invocation. scale sizes the work list: it is
// the run length in seconds, and each workload turns it into a fixed
// number of operations at its reference rate, so a run is bounded by
// work and a faster program simply finishes sooner.
type runCfg struct {
	workload string
	seed     int64
	scale    float64
	trace    bool
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup performs the workload's whole set-up once: rep counts the
	// repetitions (setupReps of them, timed; the last one's state is
	// what the timed phase uses). Warm-up inputs differ per repetition
	// and never overlap the timed inputs.
	setup(r *run, rep int) error
	// timed runs the timed operations, each through r.op or, for
	// concurrent clients, folded into r afterwards.
	timed(r *run) error
	// check verifies the outputs after the timed phase.
	check(r *run) error
	// close releases what setup started.
	close()
}

var workloads = map[string]func(cfg runCfg) workload{
	"campaign": newCampaign,
	"difftest": newDifftest,
	"serve":    newServe,
	"paper":    newPaper,
}

func workloadNames() []string {
	n := make([]string, 0, len(workloads))
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

type check struct {
	ok     bool
	detail string
}

// run is the state of one benchmark run shared by every workload.
type run struct {
	cfg  runCfg
	rec  *recorder // nil unless traced
	host hostRecord

	attempted, failed int
	failures          []string // the first few failed operations
	checks            map[string]check

	// opMS is each operation's time: for the serial workloads, the CPU
	// time of the thread that ran it (r.op sets serial); for serve, the
	// client's wall-clock latency.
	opMS   []float64
	serial bool

	e2e   map[string]float64
	layer map[string]float64
	notes []string

	// Per-operation simulator counters summed over the timed ops, from
	// MachinePool.Harvest or /metrics.
	sim simCounters
	// simOps, when set, is the number of runs r.sim covers instead of
	// the timed operations (the paper workload's probe runs).
	simOps int
	// inOpSpans counts spans recorded inside timed operations, for the
	// tracing-overhead estimate; zero means one per operation.
	inOpSpans int

	paper  *paperRound          // the delivery-cost figures
	probes map[string]*recorder // traced runs' layer probes
}

// simCounters are the CPU and TLB counters of a set of runs.
type simCounters struct {
	insts, cycles, jitExecs, jitBlocks, jitInval, jitGuard, utlbHits, tlbMisses float64
}

func (s *simCounters) add(m *core.Machine) {
	c := m.CPU()
	s.insts += float64(c.Insts)
	s.cycles += float64(c.Cycles)
	s.jitExecs += float64(c.JITExecs)
	s.jitBlocks += float64(c.JITBlocks)
	s.jitInval += float64(c.JITInvalidations)
	s.jitGuard += float64(c.JITGuardMisses)
	s.utlbHits += float64(c.FastHits)
	s.tlbMisses += float64(m.K.TLB.Misses)
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// setCheck records a named output check.
func (r *run) setCheck(name string, ok bool, format string, args ...any) {
	if r.checks == nil {
		r.checks = map[string]check{}
	}
	if prev, seen := r.checks[name]; seen && !prev.ok {
		return // keep the first failure's detail
	}
	r.checks[name] = check{ok: ok, detail: fmt.Sprintf(format, args...)}
}

// op times one operation of a serial workload by the CPU time of its
// thread (execute locks the timed phase to one thread), so time the host
// steals for other tenants does not count. In traced mode it is wrapped
// in a span named name; replay, when non-nil in traced mode, runs after
// the operation's clock stops and re-times the operation's layers as
// separate public calls, its spans parented to the operation's span.
func (r *run) op(name string, i int, f func() error, replay func(sp int)) {
	r.serial = true
	sp := r.rec.begin(name, i, 0)
	c := threadCPU()
	err := f()
	d := threadCPU() - c
	r.rec.end(sp, 0)
	r.opMS = append(r.opMS, float64(d.Nanoseconds())/1e6)
	r.attempted++
	if err != nil {
		r.fail(i, err)
	}
	if replay != nil && r.rec != nil {
		replay(sp)
	}
}

func (r *run) fail(i int, err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("op %d: %v", i, err))
	}
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// heapAllocs reads the cumulative heap allocation counter without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// execute performs one run: set-up, the timed phase, output checks, the
// delivery-cost measurement, and (traced) the per-layer metrics.
func execute(mk func(runCfg) workload, cfg runCfg) (*run, error) {
	clock := readHostClock()
	r := &run{cfg: cfg, e2e: map[string]float64{}, layer: map[string]float64{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	w := mk(cfg)
	defer w.close()

	// The first NewMachine assembles the kernel image, once per process.
	sp := r.rec.begin("core.boot", -1, 0)
	t := time.Now()
	if _, err := core.NewMachine(); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	r.layer["core.boot_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	r.rec.end(sp, 0)
	setupFirst := time.Since(t)

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		if err := w.setup(r, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t)
		if rep == 0 {
			d += setupFirst
		}
		setups = append(setups, d.Seconds())
	}
	r.e2e["setup_s"] = median(setups)

	var ms0, ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	alloc0 := heapAllocs()
	runtime.LockOSThread()
	cpu0, t := ownCPU(), time.Now()
	err := w.timed(r)
	wall, cpu := time.Since(t).Seconds(), ownCPU()-cpu0
	runtime.UnlockOSThread()
	if err != nil {
		return nil, err
	}
	alloc1 := heapAllocs()
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	rss := peakRSSMB()
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operations attempted")
	}
	ops := float64(r.attempted)

	// Serial workloads count throughput per second of the process's CPU
	// time (GC included); serve, whose clients wait on the network, per
	// second of wall time.
	if r.serial {
		r.e2e["ops_per_s"] = ops / cpu
	} else {
		r.e2e["ops_per_s"] = ops / wall
	}
	r.e2e["op_p50_ms"] = percentile(r.opMS, 50)
	r.e2e["op_p90_ms"] = percentile(r.opMS, 90)
	r.e2e["alloc_kb_per_op"] = float64(alloc1-alloc0) / 1024 / ops
	r.e2e["live_heap_mb"] = float64(ms2.HeapAlloc) / (1 << 20)
	r.e2e["peak_rss_mb"] = rss
	r.layer["runtime.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / ops
	r.layer["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	r.layer["runtime.heap_growth_kb_per_op"] = (float64(ms2.HeapAlloc) - float64(ms0.HeapAlloc)) / 1024 / ops

	if err := w.check(r); err != nil {
		return nil, err
	}
	if err := r.deliveryCosts(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.layerMetrics(); err != nil {
			return nil, err
		}
	}
	r.host = clock.record()
	return r, nil
}

// opsFor turns the run length into an operation count at a workload's
// reference rate, never fewer than min.
func opsFor(cfg runCfg, perSecond float64, min int) int {
	return max(min, int(math.Round(cfg.scale*perSecond)))
}

// splitmix64 spreads a seed over the input space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// window picks the block of `size` consecutive seeds a run uses out of
// [0, universe): the same seed always picks the same block.
func window(seed int64, size, universe int) (int, error) {
	blocks := universe / size
	if blocks < 1 {
		return 0, fmt.Errorf("a run needs %d seeds but the swept universe has %d; shorten the run", size, universe)
	}
	return int(splitmix64(uint64(seed))%uint64(blocks)) * size, nil
}
