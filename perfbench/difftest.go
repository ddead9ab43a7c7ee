package main

import (
	"fmt"

	"uexc/internal/asm"
	"uexc/internal/core"
	dt "uexc/internal/difftest"
	"uexc/internal/kernel"
	"uexc/internal/progen"
	"uexc/internal/userrt"
	"uexc/internal/verdict"
)

// progenUniverse is the progen seed space the difftest and serve
// workloads draw from. Every seed in it, and the 64 after it that the
// traced run's probes use, was swept clean through the cross-mode oracle
// when the benchmark was written (README.md).
const progenUniverse = 10000

const difftestWarmSeeds = 5 // per set-up repetition

// difftestW is the cross-mode oracle, one operation per
// difftest.RunShard over seeds the process has never run, on a pool
// without warm boot.
type difftestW struct {
	base, nSeeds int
	pool         *core.MachinePool
	harvest      *simCounters
}

func newDifftest(cfg runCfg) workload {
	return &difftestW{nSeeds: opsFor(cfg, 33, 2)}
}

func (w *difftestW) seed(i int) int { return w.base + setupReps*difftestWarmSeeds + i }

func (w *difftestW) setup(r *run, rep int) error {
	if rep == 0 {
		base, err := window(r.cfg.seed, setupReps*difftestWarmSeeds+w.nSeeds, progenUniverse)
		if err != nil {
			return err
		}
		w.base = base
	}
	w.pool = &core.MachinePool{}
	w.pool.Harvest = func(m *core.Machine) {
		if w.harvest != nil {
			w.harvest.add(m)
		}
	}
	m, err := w.pool.Get()
	if err != nil {
		return err
	}
	w.pool.Put(m)
	for s := 0; s < difftestWarmSeeds; s++ {
		seed := w.base + rep*difftestWarmSeeds + s
		if err := difftestErr(dt.RunShard(w.pool, seed)); err != nil {
			return fmt.Errorf("warm-up seed %d: %w", seed, err)
		}
	}
	return nil
}

func difftestErr(t dt.Shard) error {
	switch {
	case len(t.Divergences) > 0:
		return fmt.Errorf("%d divergences, first: %s", len(t.Divergences), t.Divergences[0])
	case t.Verdict == verdict.EngineBug:
		return fmt.Errorf("engine-bug verdict")
	}
	return nil
}

func (w *difftestW) timed(r *run) error {
	w.harvest = &r.sim
	defer func() { w.harvest = nil }()
	for i := 0; i < w.nSeeds; i++ {
		seed := w.seed(i)
		var replay func(sp int)
		if r.rec != nil {
			replay = func(sp int) {
				w.harvest = nil
				replayDifftest(r.rec, i, sp, w.pool, seed)
				w.harvest = &r.sim
			}
		}
		r.op("difftest.op", i, func() error { return difftestErr(dt.RunShard(w.pool, seed)) }, replay)
	}
	return nil
}

// replayDifftest re-times one difftest seed's layers as separate public
// calls: program generation and rendering, the three assemblies a cache
// miss performs, then per mode the checkout, the (now cached) program
// load, the run, and the return. What the operation spent beyond these
// is the oracle's own work: state readout, the diff, classification.
func replayDifftest(rec *recorder, op, parent int, pool *core.MachinePool, seed int) {
	sp := rec.begin("progen.generate", op, parent)
	p := progen.Generate(int64(seed))
	srcs := make([]string, len(dt.Modes))
	for k, mode := range dt.Modes {
		srcs[k] = p.Source(mode, false)
	}
	rec.end(sp, 0)
	for _, src := range srcs {
		a0 := heapAllocs()
		sp = rec.begin("asm.assemble", op, parent)
		_, err := asm.Assemble(userrt.Prelude()+src, kernel.UserTextBase)
		rec.end(sp, float64(heapAllocs()-a0))
		if err != nil {
			return
		}
	}
	for k, mode := range dt.Modes {
		sp = rec.begin("core.get.reset", op, parent)
		m, err := pool.Get()
		rec.end(sp, 0)
		if err != nil {
			return
		}
		sp = rec.begin("core.load", op, parent)
		err = m.LoadProgram(srcs[k])
		rec.end(sp, 0)
		if err != nil {
			return
		}
		if mode == core.ModeHardware {
			m.EnableHardwareDelivery(progen.HWVector)
		}
		sp = rec.begin("cpu.run", op, parent)
		_ = m.Run(dt.BudgetFor(p, mode))
		rec.end(sp, float64(m.CPU().Insts))
		sp = rec.begin("core.put", op, parent)
		pool.Put(m)
		rec.end(sp, 0)
	}
}

func (w *difftestW) check(r *run) error {
	// The oracle must still catch its planted mutation, on the first
	// timed seed whose program raises a fault.
	for i := 0; i < w.nSeeds; i++ {
		seed := int64(w.seed(i))
		for _, k := range progen.Generate(seed).Episodes {
			if k != progen.KindCompute {
				r.setCheck("difftest.selftest-flags-mutation", dt.SelfTest(seed), "planted mutation on seed %d not flagged", seed)
				return nil
			}
		}
	}
	r.setCheck("difftest.selftest-flags-mutation", false, "no timed seed raises a fault")
	return nil
}

func (w *difftestW) close() {}
