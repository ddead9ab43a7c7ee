package main

import (
	"fmt"
	"math"

	"uexc/internal/arch"
	"uexc/internal/asm"
	"uexc/internal/core"
	"uexc/internal/cpu"
	"uexc/internal/faultinject"
	"uexc/internal/harness"
	"uexc/internal/kernel"
	"uexc/internal/userrt"
	"uexc/internal/verdict"
)

// campaignUniverse is the campaign seed space runs draw from. Every seed
// in it was swept clean (no failure, no engine-bug verdict) in all three
// modes when the benchmark was written; README.md records the sweep.
const campaignUniverse = 40000

// campaignBudget is the harness's run bound for its fixed programs (the
// legacy floor that its size-scaled budget never exceeds today).
const campaignBudget = 3_000_000

// Campaign shard layout, fixed by harness.RunShard: shard 3*seed+m runs
// seed under mode m (Ultrix, FastExc, Hardware), and the three shards
// past 3*seeds are the per-mode livelock probes.
var campaignModes = []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware}

const campaignWarmSeeds = 30 // per set-up repetition

// campaignOutliers are the 49 seeds of the universe with a run that
// is far from typical, found by sweeping every seed and mode on a fresh
// pool: 36 whose Hardware (or, for 22526, FastExc) run exhausts the
// 3M-instruction budget under injected corruption — the harness
// classifies them known-divergent, not failed — and 13 more whose run
// takes over 100 ms or leaves its machine retaining over 300 KB. The
// budget exhaustions cost about 0.4 s each, some 200 times a typical
// shard, and most outliers leave the pooled machine holding about a
// thousand touched pages and their decode caches, which every later
// Machine.Reset scrubs or keeps: the shards after one run up to twice as
// slow and the live heap grows by up to 5 MB. How many, and which, a
// block happened to hold would swing a run's throughput and heap by tens
// of percent; so blocks skip them all, and every run holds the
// universe's share of them instead, always the first ones of this list,
// at evenly spaced points of the timed list.
var campaignOutliers = []int{
	3608, 2227, 28802, 3950, 5428, 6227, 6319, 6460, 6495, 6874, 8360, 8995,
	11709, 14282, 14435, 15428, 16543, 16700, 16965, 17854, 17903, 18507, 19892, 19910,
	21242, 21475, 22087, 22526, 22682, 22744, 22824, 23770, 24307, 24504, 24751, 25684,
	25706, 27083, 27423, 27979, 28193, 28909, 29477, 29711, 29959, 30239, 37346, 38050,
	39422,
}

// campaignW is the fault-injection campaign on a pool without warm boot
// (the CLI path), one operation per harness.RunShard.
type campaignW struct {
	nSeeds int   // timed seeds
	warm   []int // warm-up seeds, campaignWarmSeeds per set-up repetition
	seeds  []int // timed seeds
	pool   *core.MachinePool
	prints map[int]string // first-run fingerprint of the shards the engine check re-runs

	// Harvest bookkeeping: which program a shard loads (by shard kind:
	// the three modes, then 3 = the livelock probe), captured from the
	// first harvested machine so the traced replay can load the very
	// image the harness assembled.
	progs   [4]*asm.Program
	curKind int
	harvest *simCounters // nil outside timed operations

	cov map[string]uint64
}

func newCampaign(cfg runCfg) workload {
	return &campaignW{nSeeds: opsFor(cfg, 165, 2), cov: map[string]uint64{}, prints: map[int]string{}}
}

func (w *campaignW) ops() int { return 3*w.nSeeds + len(campaignModes) }

func (w *campaignW) newPool() *core.MachinePool {
	p := &core.MachinePool{}
	p.Harvest = func(m *core.Machine) {
		if w.progs[w.curKind] == nil {
			w.progs[w.curKind] = m.Prog
		}
		if w.harvest != nil {
			w.harvest.add(m)
		}
	}
	return p
}

// shard maps timed operation i to its shard index and kind.
func (w *campaignW) shard(i int) (idx, kind int) {
	if i < 3*w.nSeeds {
		return 3*w.seeds[i/3] + i%3, i % 3
	}
	return 3*campaignUniverse + (i - 3*w.nSeeds), 3
}

// pickSeeds lays out the run's seeds: the block chosen by seed, outliers
// skipped, warm-up seeds first; then the run's share of outliers at
// evenly spaced points of the timed list.
func (w *campaignW) pickSeeds(seed int64) error {
	nOut := int(math.Round(float64(w.nSeeds) * float64(len(campaignOutliers)) / campaignUniverse))
	light := setupReps*campaignWarmSeeds + w.nSeeds - nOut
	base, err := window(seed, light+16, campaignUniverse) // 16: room for the outliers skipped
	if err != nil {
		return err
	}
	outlier := map[int]bool{}
	for _, h := range campaignOutliers {
		outlier[h] = true
	}
	var block []int
	for s := base; len(block) < light; s++ {
		if s >= campaignUniverse {
			return fmt.Errorf("campaign block at %d runs past the universe", base)
		}
		if !outlier[s] {
			block = append(block, s)
		}
	}
	w.warm, block = block[:setupReps*campaignWarmSeeds], block[setupReps*campaignWarmSeeds:]
	w.seeds = make([]int, 0, w.nSeeds)
	next := 0
	for k := 0; k < nOut; k++ {
		at := (2*k + 1) * len(block) / (2 * nOut)
		w.seeds = append(w.seeds, block[next:at]...)
		w.seeds = append(w.seeds, campaignOutliers[k%len(campaignOutliers)])
		next = at
	}
	w.seeds = append(w.seeds, block[next:]...)
	return nil
}

func (w *campaignW) setup(r *run, rep int) error {
	if rep == 0 {
		if err := w.pickSeeds(r.cfg.seed); err != nil {
			return err
		}
	}
	w.pool = w.newPool()
	m, err := w.pool.Get()
	if err != nil {
		return err
	}
	w.pool.Put(m)
	for s := 0; s < campaignWarmSeeds; s++ {
		seed := w.warm[rep*campaignWarmSeeds+s]
		for k := range campaignModes {
			w.curKind = k
			if err := shardErr(harness.RunShard(w.pool, campaignUniverse, 3*seed+k)); err != nil {
				return fmt.Errorf("warm-up seed %d: %w", seed, err)
			}
		}
	}
	for j := range campaignModes {
		w.curKind = 3
		if err := shardErr(harness.RunShard(w.pool, campaignUniverse, 3*campaignUniverse+j)); err != nil {
			return fmt.Errorf("warm-up probe: %w", err)
		}
	}
	return nil
}

// shardErr is a shard's failure, if any: a failed run, a determinism
// break between the run and its replay, an engine-bug verdict, or a
// livelock probe that was not stopped by the watchdog.
func shardErr(t harness.CampaignShard) error {
	switch {
	case t.ProbeFail != "":
		return fmt.Errorf("livelock probe: %s", t.ProbeFail)
	case t.ProbeOutcome != "":
		return nil
	case len(t.First.Failures) > 0:
		return fmt.Errorf("run failed: %s", t.First.Failures[0])
	case len(t.Again.Failures) > 0:
		return fmt.Errorf("replay failed: %s", t.Again.Failures[0])
	case t.First.Fingerprint != t.Again.Fingerprint:
		return fmt.Errorf("nondeterministic: replay fingerprint differs")
	case t.First.Verdict == verdict.EngineBug || t.Again.Verdict == verdict.EngineBug:
		return fmt.Errorf("engine-bug verdict: %s", t.First.VerdictDetail)
	}
	return nil
}

func (w *campaignW) timed(r *run) error {
	w.harvest = &r.sim
	defer func() { w.harvest = nil }()
	for i := 0; i < w.ops(); i++ {
		idx, kind := w.shard(i)
		w.curKind = kind
		var replay func(sp int)
		if r.rec != nil {
			replay = func(sp int) {
				w.harvest = nil
				w.replay(r.rec, i, sp, w.pool, idx, kind)
				w.harvest = &r.sim
			}
		}
		r.op("campaign.op", i, func() error {
			t := harness.RunShard(w.pool, campaignUniverse, idx)
			if kind < 3 {
				if w.sampled(i / 3) {
					w.prints[i] = t.First.Fingerprint
				}
				w.fold(t)
			} else if t.ProbeFail == "" {
				w.cov["watchdog-livelock"]++
			}
			return shardErr(t)
		}, replay)
	}
	return nil
}

// fold accumulates coverage exactly as the harness's own merge does:
// injected events and provoked behaviours from the first run of each
// replay pair.
func (w *campaignW) fold(t harness.CampaignShard) {
	for k := faultinject.Kind(0); k < faultinject.NumKinds; k++ {
		w.cov[k.String()] += t.First.Exercised[k]
	}
	w.cov["uex-recursion"] += t.First.Stats.UEXRecursions
	w.cov["fast-ultrix-fallback"] += t.First.Stats.FastFallbacks
}

// replay re-times shard idx's layers as separate public calls on the
// same inputs: both runs of a seed×mode shard (checkout, injector
// attach, program load, run, invariant sweep, return), or the livelock
// probe's single run. The program is the image the harness itself
// loaded, so the load span is the kernel's copy-in without the
// assembler cache lookup.
func (w *campaignW) replay(rec *recorder, op, parent int, pool *core.MachinePool, idx, kind int) {
	prog := w.progs[kind]
	runs := 2
	if kind == 3 {
		runs = 1
	}
	mode := campaignModes[idx%3]
	seed := int64(idx / 3)
	if kind == 3 {
		mode = campaignModes[idx-3*campaignUniverse]
	}
	for k := 0; k < runs; k++ {
		sp := rec.begin("core.get.reset", op, parent)
		m, err := pool.Get()
		rec.end(sp, 0)
		if err != nil {
			return
		}
		var inj *faultinject.Injector
		if kind < 3 {
			sp = rec.begin("faultinject.attach", op, parent)
			inj = faultinject.Attach(m.K, seed, faultinject.Config{})
			rec.end(sp, 0)
		}
		sp = rec.begin("core.load", op, parent)
		err = loadImage(m, prog)
		rec.end(sp, 0)
		if err != nil {
			return
		}
		if mode == core.ModeHardware {
			m.EnableHardwareDelivery(1 << arch.ExcMod)
		}
		sp = rec.begin("cpu.run", op, parent)
		_ = m.Run(campaignBudget) // outcomes are the harness's to judge; only time is taken here
		rec.end(sp, float64(m.CPU().Insts))
		if inj != nil {
			sp = rec.begin("faultinject.check", op, parent)
			_ = inj.Checker.Check()
			rec.end(sp, 0)
		}
		sp = rec.begin("core.put", op, parent)
		pool.Put(m)
		rec.end(sp, 0)
	}
}

// loadImage is Machine.LoadProgram for an already-assembled image.
func loadImage(m *core.Machine, p *asm.Program) error {
	if p == nil {
		return fmt.Errorf("no program captured")
	}
	if err := m.K.LoadUserProgram(p); err != nil {
		return err
	}
	entry, ok := p.Symbol(userrt.SymStart)
	if !ok {
		return fmt.Errorf("image has no %s", userrt.SymStart)
	}
	m.Prog = p
	m.K.LaunchUser(entry, kernel.UserStackTop-16)
	return nil
}

// campaignEngineSample is how many timed seeds are re-run under the
// interpreter on fresh machines.
const campaignEngineSample = 16

// sampled reports whether timed seed s is one the engine check re-runs.
func (w *campaignW) sampled(s int) bool {
	return s%max(1, w.nSeeds/campaignEngineSample) == 0
}

func (w *campaignW) check(r *run) error {
	var missing []string
	for _, k := range harness.RequiredCoverage {
		if w.cov[k] == 0 {
			missing = append(missing, k)
		}
	}
	r.setCheck("campaign.coverage", len(missing) == 0, "required categories never exercised: %v", missing)

	// Byte-identical fingerprints under the interpreter, on machines
	// booted fresh for each shard.
	prev := cpu.DefaultEngine
	cpu.DefaultEngine = cpu.EngineInterp
	defer func() { cpu.DefaultEngine = prev }()
	for s := 0; s < w.nSeeds; s++ {
		if !w.sampled(s) {
			continue
		}
		for k := range campaignModes {
			i := 3*s + k
			idx, _ := w.shard(i)
			t := harness.RunShard(&core.MachinePool{}, campaignUniverse, idx)
			r.setCheck("campaign.interp-identical", t.First.Fingerprint == w.prints[i],
				"shard %d: interp fingerprint differs from engine %d's", idx, prev)
		}
	}
	return nil
}

func (w *campaignW) close() {}
