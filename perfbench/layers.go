package main

import (
	"fmt"

	"uexc/internal/core"
	dt "uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/progen"
)

// Every traced run reports every per-layer metric. A metric whose layer
// the workload's own operations do not cross is measured by a probe: a
// few calls of that layer on inputs derived from the run's seed, timed
// exactly as the workload that does cross it times them, and kept in
// the probe's own recorder so it never mixes with the workload's spans.
const (
	probeCampaign = "campaign" // harness shards: attach, checkout, harness self time
	probeDifftest = "difftest" // oracle seeds: generate, assemble, difftest self time
	probeWarm     = "warm"     // warm-snapshot fork and restore
	probeServe    = "serve"    // a one-worker server: the server layer
	probeStep     = "step"     // single-stepped runs, for the paper workload's cpu layer
)

// probesFor lists the probes each workload needs.
var probesFor = map[string][]string{
	"campaign": {probeDifftest, probeWarm, probeServe},
	"difftest": {probeCampaign, probeWarm, probeServe},
	"serve":    {probeCampaign, probeDifftest},
	"paper":    {probeStep, probeCampaign, probeDifftest, probeWarm, probeServe},
}

// probeOp offsets probe operation ids past any workload's.
const probeOp = 1 << 30

// spanSources maps a span name to the probe that measures it when the
// workload's own spans have none.
var spanSources = map[string]string{
	"core.get.reset":     probeCampaign,
	"core.load":          probeStep,
	"cpu.run":            probeStep,
	"faultinject.attach": probeCampaign,
	"campaign.op":        probeCampaign,
	"difftest.op":        probeDifftest,
	"progen.generate":    probeDifftest,
	"asm.assemble":       probeDifftest,
	"core.fork":          probeWarm,
	"core.restore":       probeWarm,
}

// runProbes runs the workload's probes, each into its own recorder.
func (r *run) runProbes() error {
	r.probes = map[string]*recorder{}
	// Campaign probes draw from the campaign space. Progen probes draw
	// from the 64 seeds just past the workloads' space (swept clean like
	// it), so no workload has run them: a probe seed the process had
	// already assembled would time a cache hit as an assembly.
	h := splitmix64(uint64(r.cfg.seed) ^ 0x5bd1e995)
	base := int(h % (campaignUniverse - 3))
	progenBase := progenUniverse + int(h%8)
	for _, p := range probesFor[r.cfg.workload] {
		rec := newRecorder()
		r.probes[p] = rec
		var err error
		switch p {
		case probeCampaign:
			err = campaignProbe(rec, base)
		case probeDifftest:
			err = difftestProbe(rec, progenBase)
		case probeWarm:
			err = warmProbe(rec, progenBase)
		case probeServe:
			err = serveProbe(r)
		case probeStep:
			err = stepProbe(r, rec, progenBase)
		}
		if err != nil {
			return fmt.Errorf("%s probe: %w", p, err)
		}
	}
	return nil
}

// campaignProbe runs two campaign seeds in all three modes, each shard
// replayed layer by layer as the campaign workload does, after one
// untimed seed has booted the pool's machine and assembled the three
// programs, as the workload's set-up does.
func campaignProbe(rec *recorder, base int) error {
	w := &campaignW{nSeeds: 2, cov: map[string]uint64{}}
	w.pool = w.newPool()
	for k := range campaignModes {
		w.curKind = k
		if err := shardErr(harness.RunShard(w.pool, campaignUniverse, 3*(base+2)+k)); err != nil {
			return err
		}
	}
	for i := 0; i < 6; i++ {
		idx := 3*(base+i/3) + i%3
		w.curKind = i % 3
		sp := rec.begin("campaign.op", probeOp+i, 0)
		t := harness.RunShard(w.pool, campaignUniverse, idx)
		rec.end(sp, 0)
		if err := shardErr(t); err != nil {
			return err
		}
		w.replay(rec, probeOp+i, sp, w.pool, idx, i%3)
	}
	return nil
}

// difftestProbe runs six oracle seeds, replayed layer by layer.
func difftestProbe(rec *recorder, base int) error {
	pool := &core.MachinePool{}
	for i := 0; i < 6; i++ {
		seed := base + 32 + i
		sp := rec.begin("difftest.op", probeOp+i, 0)
		t := dt.RunShard(pool, seed)
		rec.end(sp, 0)
		if err := difftestErr(t); err != nil {
			return err
		}
		replayDifftest(rec, probeOp+i, sp, pool, seed)
	}
	return nil
}

// warmProbe checks out 24 machines from a warm snapshot.
func warmProbe(rec *recorder, base int) error {
	wr, err := newWarmReplayer()
	if err != nil {
		return err
	}
	for i := 0; i < 24; i++ {
		wr.checkout(rec, probeOp+i, 0, int64(base+i%8), dt.Modes[i%3], false)
	}
	return nil
}

// serveProbe sends 20 jobs of the serve mix through the serve
// workload's server and client and takes the server layer's metrics
// from them.
func serveProbe(r *run) error {
	w := &serveW{nJobs: 20}
	defer w.close()
	sub := &run{cfg: r.cfg, layer: map[string]float64{}}
	sub.cfg.seed ^= 0x2545f491
	if err := w.setup(sub, 0); err != nil {
		return err
	}
	w.out = w.runJobs(nil, w.jobs)
	for i, o := range w.out {
		if o.err != nil {
			return fmt.Errorf("job %d: %w", i, o.err)
		}
	}
	w.serverMetrics(r.layer)
	return nil
}

// stepProbe single-steps six generated programs with RunWithWatches,
// the stepping path the paper's microbenchmarks use (their own machines
// are internal to core), for the cpu layer's time and counters.
func stepProbe(r *run, rec *recorder, base int) error {
	pool := &core.MachinePool{}
	r.sim = simCounters{}
	runs := 0
	for i := 0; i < 6; i++ {
		mode := dt.Modes[i%3]
		p := progen.Generate(int64(base + 48 + i))
		src := p.Source(mode, false)
		m, err := pool.Get()
		if err != nil {
			return err
		}
		if err := m.LoadProgram(src); err != nil { // assemble outside the timed load
			return err
		}
		pool.Put(m)
		sp := rec.begin("core.get.reset", probeOp+i, 0)
		m, err = pool.Get()
		rec.end(sp, 0)
		if err != nil {
			return err
		}
		sp = rec.begin("core.load", probeOp+i, 0)
		err = m.LoadProgram(src)
		rec.end(sp, 0)
		if err != nil {
			return err
		}
		if mode == core.ModeHardware {
			m.EnableHardwareDelivery(progen.HWVector)
		}
		sp = rec.begin("cpu.run", probeOp+i, 0)
		err = m.RunWithWatches(dt.BudgetFor(p, mode), nil)
		rec.end(sp, float64(m.CPU().Insts))
		if err != nil {
			return err
		}
		r.sim.add(m)
		runs++
		pool.Put(m)
	}
	r.simOps = runs
	return nil
}

// spans returns the durations (µs) and values of the spans named name:
// the workload's own, or else its probe's.
func (r *run) spans(name string) (us, values []float64) {
	us, values = r.rec.durations(name)
	if len(us) == 0 {
		if p := r.probes[spanSources[name]]; p != nil {
			us, values = p.durations(name)
		}
	}
	return us, values
}

// selfTimes is spans for an operation's self time.
func (r *run) selfTimes(name string) []float64 {
	if s := r.rec.selfTimes(name); len(s) > 0 {
		return s
	}
	if p := r.probes[spanSources[name]]; p != nil {
		return p.selfTimes(name)
	}
	return nil
}

// layerMetrics computes the per-layer metrics of a traced run.
func (r *run) layerMetrics() error {
	if err := r.runProbes(); err != nil {
		return err
	}
	p50 := func(name string, div float64) float64 {
		us, _ := r.spans(name)
		return median(us) / div
	}
	L := r.layer
	L["core.get_reset_us.p50"] = p50("core.get.reset", 1)
	L["core.get_restore_us.p50"] = p50("core.restore", 1)
	L["core.fork_us.p50"] = p50("core.fork", 1)
	_, pages := r.spans("core.restore")
	L["core.restore_pages"] = mean(pages)
	L["core.load_us.p50"] = p50("core.load", 1)
	L["progen.generate_us.p50"] = p50("progen.generate", 1)
	L["faultinject.attach_us.p50"] = p50("faultinject.attach", 1)
	asmUS, asmBytes := r.spans("asm.assemble")
	L["asm.assemble_ms.p50"] = median(asmUS) / 1e3
	L["asm.alloc_kb_per_call"] = mean(asmBytes) / 1024
	runUS, insts := r.spans("cpu.run")
	L["cpu.run_ms.p50"] = median(runUS) / 1e3
	L["cpu.sim_mips"] = sum(insts) / sum(runUS) // instructions per µs = millions per second
	// Self time is a small remainder of two similar timings, so its
	// per-operation median is noise; the mean over all operations is
	// what the accounting needs.
	L["harness.self_us_per_op"] = mean(r.selfTimes("campaign.op"))
	L["difftest.self_us_per_op"] = mean(r.selfTimes("difftest.op"))

	ops := float64(r.attempted)
	if r.simOps > 0 {
		ops = float64(r.simOps)
	}
	s := r.sim
	L["cpu.sim_insts_per_op"] = s.insts / ops
	L["cpu.sim_cycles_per_op"] = s.cycles / ops
	L["cpu.jit_execs_per_op"] = s.jitExecs / ops
	L["cpu.jit_compiles_per_op"] = s.jitBlocks / ops
	L["cpu.jit_invalidations_per_op"] = s.jitInval / ops
	L["cpu.jit_guard_misses_per_op"] = s.jitGuard / ops
	L["cpu.utlb_hits_per_op"] = s.utlbHits / ops
	L["tlb.misses_per_op"] = s.tlbMisses / ops

	inOp := float64(r.inOpSpans)
	if inOp == 0 {
		inOp = float64(r.attempted) // the operation's own span
	}
	L["trace.overhead_us_per_op"] = inOp / float64(r.attempted) * spanCostUS()
	r.accounting()
	return nil
}

// accounting prints how the traced operations' mean time splits over
// their child spans, the remainder being the operation's self time.
func (r *run) accounting() {
	name := map[string]string{"campaign": "campaign.op", "difftest": "difftest.op", "serve": "serve.job", "paper": "paper.op"}[r.cfg.workload]
	ops := map[int]bool{}
	var total int64
	for i, s := range r.rec.spans {
		if s.Name == name {
			ops[i+1] = true
			total += s.End - s.Start
		}
	}
	if len(ops) == 0 {
		return
	}
	child := map[string]int64{}
	var names []string
	var covered int64
	for _, s := range r.rec.spans {
		if ops[s.Parent] {
			if _, seen := child[s.Name]; !seen {
				names = append(names, s.Name)
			}
			child[s.Name] += s.End - s.Start
			covered += s.End - s.Start
		}
	}
	n := float64(len(ops))
	line := fmt.Sprintf("accounting %s: mean %.1f us per op =", name, float64(total)/1e3/n)
	for _, c := range names {
		line += fmt.Sprintf(" %s %.1f +", c, float64(child[c])/1e3/n)
	}
	line += fmt.Sprintf(" self %.1f us (children cover %.1f%%)", float64(total-covered)/1e3/n, 100*float64(covered)/float64(total))
	r.notes = append(r.notes, line)
}
