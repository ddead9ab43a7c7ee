package main

import (
	"fmt"

	"uexc/internal/core"
	"uexc/internal/cpu"
)

// paperN is the exception count per microbenchmark call: the value the
// repository's Table 2 uses, so the simulated figures are the published
// reproduction's. paperWarmN gives the warm-up different programs.
const (
	paperN     = 40
	paperWarmN = 8
)

// paperRound holds one round of the Table 2 and Table 3 calls: the
// simulated costs the paper publishes.
type paperRound struct {
	Simple    [3]core.Timing // indexed by core.Mode: Ultrix, FastExc, Hardware
	WriteProt core.Timing    // FastExc, eager amplification
	Subpage   core.SubpageTiming
	Unaligned core.Timing
	Syscall   float64 // cycles
	Phases    core.PhaseCounts
}

// paperCalls are the operations of the paper workload, in round order.
var paperCalls = []struct {
	name string
	call func(pr *paperRound, n int) error
}{
	{"simple-ultrix", func(pr *paperRound, n int) (err error) {
		pr.Simple[core.ModeUltrix], err = core.MeasureSimpleException(core.ModeUltrix, n)
		return err
	}},
	{"simple-fast", func(pr *paperRound, n int) (err error) {
		pr.Simple[core.ModeFast], err = core.MeasureSimpleException(core.ModeFast, n)
		return err
	}},
	{"simple-hardware", func(pr *paperRound, n int) (err error) {
		pr.Simple[core.ModeHardware], err = core.MeasureSimpleException(core.ModeHardware, n)
		return err
	}},
	{"writeprot-fast-eager", func(pr *paperRound, n int) (err error) {
		pr.WriteProt, err = core.MeasureWriteProt(core.ModeFast, true, n)
		return err
	}},
	{"subpage", func(pr *paperRound, n int) (err error) {
		pr.Subpage, err = core.MeasureSubpage(n)
		return err
	}},
	{"unaligned-min", func(pr *paperRound, n int) (err error) {
		pr.Unaligned, err = core.MeasureUnalignedMin(n)
		return err
	}},
	{"null-syscall", func(pr *paperRound, n int) (err error) {
		pr.Syscall, err = core.MeasureNullSyscall(n)
		return err
	}},
	{"kernel-phases", func(pr *paperRound, _ int) (err error) {
		pr.Phases, err = core.MeasureKernelPhases()
		return err
	}},
}

// measureRound runs every paper call once.
func measureRound(n int) (paperRound, error) {
	var pr paperRound
	for _, c := range paperCalls {
		if err := c.call(&pr, n); err != nil {
			return pr, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	return pr, nil
}

// paperW is the paper workload: the Table 2 and Table 3
// microbenchmarks, a fixed number of rounds per run. The seed does not
// apply: the programs are fixed by the exception count.
type paperW struct {
	rounds int
	ref    *paperRound // round 0's results; every later round must equal it
	cur    paperRound
}

func newPaper(cfg runCfg) workload {
	return &paperW{rounds: opsFor(cfg, 300, 13)}
}

func (w *paperW) ops() int { return w.rounds * len(paperCalls) }

// paperWarmRounds is the warm-up per set-up repetition.
const paperWarmRounds = 60

func (w *paperW) setup(r *run, rep int) error {
	for k := 0; k < paperWarmRounds; k++ {
		if _, err := measureRound(paperWarmN); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperW) timed(r *run) error {
	for i := 0; i < w.ops(); i++ {
		c := paperCalls[i%len(paperCalls)]
		r.op("paper.op", i, func() error { return c.call(&w.cur, paperN) }, nil)
		if i%len(paperCalls) == len(paperCalls)-1 {
			if w.ref == nil {
				ref := w.cur
				w.ref = &ref
			} else if w.cur != *w.ref {
				r.fail(i, fmt.Errorf("round %d's simulated results differ from round 0's", i/len(paperCalls)))
			}
		}
	}
	return nil
}

func (w *paperW) check(r *run) error {
	if w.ref == nil {
		return fmt.Errorf("paper: no complete round")
	}
	r.paper = w.ref
	// The interpreter must reproduce the default engine's figures.
	prev := cpu.DefaultEngine
	cpu.DefaultEngine = cpu.EngineInterp
	interp, err := measureRound(paperN)
	cpu.DefaultEngine = prev
	if err != nil {
		return fmt.Errorf("paper under the interpreter: %w", err)
	}
	r.setCheck("paper.engines-identical", interp == *w.ref, "interp engine figures differ from engine %d's", prev)
	return nil
}

func (w *paperW) close() {}

// deliveryCosts sets the sim_* metrics and checks them against the
// paper's structure. The paper workload measured them in its timed
// phase; every other workload measures one round now, after its own
// timed phase, so the figures are on every run.
func (r *run) deliveryCosts() error {
	if r.paper == nil {
		pr, err := measureRound(paperN)
		if err != nil {
			return fmt.Errorf("delivery costs: %w", err)
		}
		r.paper = &pr
	}
	pr := r.paper
	ult, fast, hw := pr.Simple[core.ModeUltrix], pr.Simple[core.ModeFast], pr.Simple[core.ModeHardware]
	r.e2e["sim_ultrix_rt_cycles"] = ult.RoundTrip
	r.e2e["sim_fast_rt_cycles"] = fast.RoundTrip
	r.e2e["sim_hw_rt_cycles"] = hw.RoundTrip
	r.e2e["sim_fast_deliver_cycles"] = fast.Deliver
	r.e2e["sim_fast_wprot_rt_cycles"] = pr.WriteProt.RoundTrip
	r.e2e["sim_fast_kernel_insts"] = float64(pr.Phases.Total())
	ph := pr.Phases
	for name, v := range map[string]int{
		"decode": ph.Decode, "compat": ph.Compat, "save": ph.Save,
		"fpcheck": ph.FPCheck, "tlbcheck": ph.TLBCheck, "vector": ph.Vector,
	} {
		r.layer["kernel.phase."+name] = float64(v)
	}

	r.setCheck("paper.rt-order", hw.RoundTrip < fast.RoundTrip && fast.RoundTrip < ult.RoundTrip,
		"round trips not ordered Hardware < FastExc < Ultrix: %.1f %.1f %.1f cycles", hw.RoundTrip, fast.RoundTrip, ult.RoundTrip)
	r.setCheck("paper.ultrix-5x-fast", ult.RoundTrip >= 5*fast.RoundTrip,
		"Ultrix round trip %.1f is under 5x FastExc's %.1f", ult.RoundTrip, fast.RoundTrip)
	for _, m := range []core.Mode{core.ModeUltrix, core.ModeFast, core.ModeHardware} {
		t := pr.Simple[m]
		r.setCheck("paper.deliver+return<=rt."+m.String(), t.Deliver+t.Return <= t.RoundTrip*(1+1e-12),
			"deliver %.2f + return %.2f > round trip %.2f cycles", t.Deliver, t.Return, t.RoundTrip)
	}
	sum := ph.Decode + ph.Compat + ph.Save + ph.FPCheck + ph.TLBCheck + ph.Vector
	allPos := ph.Decode > 0 && ph.Compat > 0 && ph.Save > 0 && ph.FPCheck > 0 && ph.TLBCheck > 0 && ph.Vector > 0
	r.setCheck("paper.phases-sum", sum == ph.Total() && allPos, "phases %+v do not sum to the total %d", ph, ph.Total())

	us := func(c float64) string { return fmt.Sprintf("%.1f", c/cpu.ClockMHz) }
	r.notes = append(r.notes,
		"simulated delivery costs (us) beside the paper's published figures:",
		fmt.Sprintf("  Table 2 FastExc  deliver %s (5)  wprot deliver %s (15)  subpage deliver %s (19)  return %s (3)  round trip %s (8)",
			us(fast.Deliver), us(pr.WriteProt.Deliver), us(pr.Subpage.Delivered.Deliver), us(fast.Return), us(fast.RoundTrip)),
		fmt.Sprintf("  Table 2 Ultrix   deliver %s (~55)  return %s (~25)  round trip %s (80)",
			us(ult.Deliver), us(ult.Return), us(ult.RoundTrip)),
		fmt.Sprintf("  Hardware round trip %s  FastExc wprot + eager retry %s (18)  unaligned minimal %s (6)  null syscall %s (12)",
			us(hw.RoundTrip), us(pr.WriteProt.RoundTrip), us(pr.Unaligned.RoundTrip), us(pr.Syscall)),
		fmt.Sprintf("  Table 3 phases %d/%d/%d/%d/%d/%d = %d (6/11/31/6/8/3 = 65)",
			ph.Decode, ph.Compat, ph.Save, ph.FPCheck, ph.TLBCheck, ph.Vector, ph.Total()),
	)
	return nil
}
