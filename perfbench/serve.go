package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"uexc/internal/core"
	"uexc/internal/debug"
	dt "uexc/internal/difftest"
	"uexc/internal/harness"
	"uexc/internal/progen"
	"uexc/internal/server"
)

// The serve job mix, one round of ten jobs: five program runs over the
// three modes and two debug sessions over a small set of popular seeds
// that repeat, one small verbose campaign, and two single-seed difftest
// shard ranges over seeds the process has never run. Difftest jobs are
// the slowest class and a fifth of the mix, so the 90th percentile falls
// inside that class rather than on the edge between two.
const (
	servePopular     = 8
	serveRound       = 10
	serveFresh       = 2 // difftest jobs per round
	serveCampaignN   = 2 // seeds per campaign job
	serveWarmPopular = 4 // per set-up repetition
)

var serveModes = []string{"ultrix", "fast", "hardware"}

// sessionScript steps into the program, reads the registers and the
// oracle data page, and runs to the end: valid in every mode.
var sessionScript = []debug.Command{
	{Op: "step", N: 200},
	{Op: "regs"},
	{Op: "inspect", Addr: progen.DataBase, N: 8},
	{Op: "continue"},
}

// serveJob is one request of the mix; seed is the program-run or
// debug-session seed, or the difftest range's seed.
type serveJob struct {
	req  server.Request
	seed int64
}

// serveOutcome is one job as its client saw it.
type serveOutcome struct {
	latency, admit time.Duration
	bytes          int
	retries        int
	ok             bool
	err            error
	elapsedMS      int64
	output         string                  // progress lines then the result summary
	shards         map[int]json.RawMessage // shard-range jobs' digests
}

// serveW runs a non-race uexc-serve in this process on a loopback
// listener, with warm boot (the service default) and one worker, and one
// closed-loop client that waits for each job's trailer before sending
// the next. With two workers and two clients the server, the clients and
// the GC saturated both CPUs of the reference host and the run-to-run
// spread of throughput doubled (18% against 9%).
type serveW struct {
	nJobs int
	base  int // first seed of the run's block

	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served sync.WaitGroup

	jobs []serveJob
	out  []serveOutcome

	// Lifetime tallies of the current server, for /metrics accounting.
	admitted   map[server.Type]uint64
	okJobs     uint64
	retries429 uint64
	before     server.Snapshot
	after      server.Snapshot
}

func newServe(cfg runCfg) workload {
	return &serveW{nJobs: opsFor(cfg, 110, serveRound)}
}

// Seed block layout: popular seeds, then each set-up repetition's
// warm-up seeds, then serveFresh unseen difftest seeds per round.
func (w *serveW) blockSize() int {
	return servePopular + setupReps*(serveWarmPopular+serveFresh) + (w.nJobs+serveRound-1)/serveRound*serveFresh
}

// mix builds job i of the mix over the given seeds; fresh is the first
// of the round's serveFresh unseen seeds.
func mix(i int, popular []int64, fresh int64) serveJob {
	seed := popular[i%len(popular)]
	mode := serveModes[i%len(serveModes)]
	switch i % serveRound {
	case 8, 9:
		fresh += int64(i%serveRound - 8)
		return serveJob{seed: fresh, req: server.Request{Type: server.TypeDifftest, Seeds: progenUniverse,
			ShardFrom: int(fresh), ShardTo: int(fresh) + 1, Parallel: 1}}
	case 3, 6:
		return serveJob{seed: seed, req: server.Request{Type: server.TypeDebugSession, Seed: seed, Mode: mode,
			Verbose: true, Commands: sessionScript}}
	case 5:
		return serveJob{req: server.Request{Type: server.TypeCampaign, Seeds: serveCampaignN, Parallel: 1, Verbose: true}}
	default:
		return serveJob{seed: seed, req: server.Request{Type: server.TypeProgramRun, Seed: seed, Mode: mode}}
	}
}

func (w *serveW) setup(r *run, rep int) error {
	if rep == 0 {
		base, err := window(r.cfg.seed, w.blockSize(), progenUniverse)
		if err != nil {
			return err
		}
		w.base = base
		popular := make([]int64, servePopular)
		for k := range popular {
			popular[k] = int64(base + k)
		}
		fresh := base + servePopular + setupReps*(serveWarmPopular+serveFresh)
		w.jobs = make([]serveJob, w.nJobs)
		for i := range w.jobs {
			w.jobs[i] = mix(i, popular, int64(fresh+i/serveRound*serveFresh))
		}
	}
	w.close()
	if err := w.start(); err != nil {
		return err
	}
	// Warm-up: one round of the mix on this repetition's own seeds.
	first := w.base + servePopular + rep*(serveWarmPopular+serveFresh)
	warm := make([]int64, serveWarmPopular)
	for k := range warm {
		warm[k] = int64(first + k)
	}
	jobs := make([]serveJob, serveRound)
	for i := range jobs {
		jobs[i] = mix(i, warm, int64(first+serveWarmPopular))
	}
	for i, o := range w.runJobs(nil, jobs) {
		if o.err != nil {
			return fmt.Errorf("warm-up job %d (%s): %w", i, jobs[i].req.Type, o.err)
		}
	}
	return nil
}

// start brings up a server and waits until /healthz answers.
func (w *serveW) start() error {
	srv, err := server.New(server.Config{Workers: 1, WarmBoot: true, MaxSeeds: progenUniverse})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	w.admitted = map[server.Type]uint64{}
	w.okJobs, w.retries429 = 0, 0
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := w.client.Get(w.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not become healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the current server, if any, and waits for it.
func (w *serveW) close() {
	if w.srv == nil {
		return
	}
	w.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = w.hs.Shutdown(ctx)
	cancel()
	w.served.Wait()
	w.srv.Close()
	w.client.CloseIdleConnections()
	w.srv = nil
}

// runJobs sends jobs from the client, one after another, and returns
// their outcomes by index. The client runs on a goroutine of its own, as
// a separate client would, since the timed phase keeps the calling
// goroutine locked to its thread. With a recorder, each job is a
// "serve.job" span with "server.admit" and "server.stream" children.
func (w *serveW) runJobs(rec *recorder, jobs []serveJob) []serveOutcome {
	out := make([]serveOutcome, len(jobs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, j := range jobs {
			o := w.post(rec, i, j.req)
			w.retries429 += uint64(o.retries)
			if o.admit > 0 {
				w.admitted[j.req.Type]++
			}
			if o.ok {
				w.okJobs++
			}
			out[i] = o
		}
	}()
	<-done
	return out
}

// post sends one job and reads its NDJSON stream to the trailer,
// recomputing the trailer's record count and FNV-1a-64 itself.
func (w *serveW) post(rec *recorder, i int, req server.Request) (o serveOutcome) {
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	job := rec.begin("serve.job", i, 0)
	t0 := time.Now()
	defer func() {
		o.latency = time.Since(t0)
		rec.end(job, float64(o.bytes))
	}()
	var resp *http.Response
	for {
		sp := rec.begin("server.admit", i, job)
		resp, err = w.client.Post(w.url+"/jobs", "application/json", bytes.NewReader(body))
		rec.end(sp, 0)
		if err != nil {
			o.err = err
			return o
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			break
		}
		// Backpressure: honour Retry-After, as a dispatching client must.
		o.retries++
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(time.Duration(max(secs, 1)) * time.Second)
	}
	defer resp.Body.Close()
	o.admit = time.Since(t0)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		o.admit = 0
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		return o
	}
	sp := rec.begin("server.stream", i, job)
	defer rec.end(sp, 0)

	var out strings.Builder
	h := fnv.New64a()
	records := 0
	var result *server.Event
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		o.bytes += len(line)
		if err != nil {
			o.err = fmt.Errorf("stream ended without a trailer: %v", err)
			return o
		}
		var ev server.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			o.err = fmt.Errorf("malformed event: %v", err)
			return o
		}
		if ev.Type == "trailer" {
			want := fmt.Sprintf("%016x", h.Sum64())
			switch {
			case result == nil:
				o.err = fmt.Errorf("trailer before a result")
			case ev.Records != records || ev.FNV != want:
				o.err = fmt.Errorf("trailer says %d records fnv %s, client counted %d fnv %s", ev.Records, ev.FNV, records, want)
			case result.OK == nil || !*result.OK:
				o.err = fmt.Errorf("job failed: %s", result.Error)
			default:
				o.ok = true
				o.elapsedMS = result.ElapsedMS
				o.output = out.String()
			}
			return o
		}
		h.Write(line)
		records++
		switch ev.Type {
		case "progress":
			out.WriteString(ev.Line)
		case "shard":
			if o.shards == nil {
				o.shards = map[int]json.RawMessage{}
			}
			if ev.Shard != nil {
				o.shards[*ev.Shard] = ev.Data
			}
		case "result":
			result = &ev
			out.WriteString(ev.Summary)
		}
	}
}

func (w *serveW) snapshot() (server.Snapshot, error) {
	var snap server.Snapshot
	resp, err := w.client.Get(w.url + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

func (w *serveW) timed(r *run) error {
	var err error
	if w.before, err = w.snapshot(); err != nil {
		return fmt.Errorf("metrics before: %w", err)
	}
	w.out = w.runJobs(r.rec, w.jobs)
	if w.after, err = w.snapshot(); err != nil {
		return fmt.Errorf("metrics after: %w", err)
	}
	for i, o := range w.out {
		r.attempted++
		r.opMS = append(r.opMS, float64(o.latency.Nanoseconds())/1e6)
		if o.err != nil {
			r.fail(i, fmt.Errorf("%s job: %w", w.jobs[i].req.Type, o.err))
		}
	}
	r.inOpSpans += 3 * len(w.out)
	b, a := w.before, w.after
	r.sim = simCounters{
		insts: float64(a.SimInsts - b.SimInsts), cycles: float64(a.SimCycles - b.SimCycles),
		jitExecs: float64(a.SimJITExecs - b.SimJITExecs), jitBlocks: float64(a.SimJITBlocks - b.SimJITBlocks),
		jitInval: float64(a.SimJITInvalidations - b.SimJITInvalidations), jitGuard: float64(a.SimJITGuardMisses - b.SimJITGuardMisses),
		utlbHits: float64(a.SimFastPathHits - b.SimFastPathHits), tlbMisses: float64(a.SimTLBMisses - b.SimTLBMisses),
	}
	w.serverMetrics(r.layer)
	if r.rec != nil {
		return w.replay(r)
	}
	return nil
}

// serverMetrics derives the server layer's metrics from the outcomes.
func (w *serveW) serverMetrics(layer map[string]float64) {
	var admit, exec, overhead, kb []float64
	for _, o := range w.out {
		if !o.ok {
			continue
		}
		admit = append(admit, float64(o.admit.Nanoseconds())/1e6)
		exec = append(exec, float64(o.elapsedMS))
		overhead = append(overhead, float64(o.latency.Nanoseconds())/1e6-float64(o.elapsedMS))
		kb = append(kb, float64(o.bytes)/1024)
	}
	layer["server.admit_ms.p50"] = median(admit)
	layer["server.exec_ms.p50"] = median(exec)
	layer["server.exec_ms.p90"] = percentile(exec, 90)
	layer["server.overhead_ms.p50"] = median(overhead)
	layer["server.stream_kb_per_job"] = mean(kb)
	layer["server.retries_429"] = float64(w.retries429)
}

// replay re-times the warm checkouts behind every program-run and
// debug-session job, after the timed phase so the server is idle: fork
// or restore of a warm snapshot, the cached program load, and the run.
// They re-time work the job's stream wait already covers, so they share
// the job's id but are not its children.
func (w *serveW) replay(r *run) error {
	wr, err := newWarmReplayer()
	if err != nil {
		return err
	}
	for i, j := range w.jobs {
		if j.req.Type == server.TypeProgramRun || j.req.Type == server.TypeDebugSession {
			mode, _ := server.ParseMode(j.req.Mode)
			wr.checkout(r.rec, i, 0, j.seed, mode, true)
		}
	}
	return nil
}

func (w *serveW) check(r *run) error {
	// Campaign jobs against the same sweep through the library.
	var lib bytes.Buffer
	res, err := harness.FaultCampaignCtx(context.Background(), nil, serveCampaignN, 1, &lib)
	if err != nil {
		return fmt.Errorf("library campaign: %w", err)
	}
	libOut := lib.String() + res.Summary()
	same := map[string]string{} // program-run and session outputs by request
	for i, j := range w.jobs {
		o := w.out[i]
		if !o.ok {
			continue
		}
		switch j.req.Type {
		case server.TypeCampaign:
			r.setCheck("serve.campaign-identical", o.output == libOut, "job %d output differs from the library sweep", i)
		case server.TypeDifftest:
			want, err := json.Marshal(dt.RunShard(&core.MachinePool{}, int(j.seed)))
			got := o.shards[int(j.seed)]
			r.setCheck("serve.difftest-identical", err == nil && bytes.Equal(got, want),
				"job %d seed %d digest %s, library %s", i, j.seed, got, want)
		default:
			key := fmt.Sprintf("%s/%d/%s", j.req.Type, j.seed, j.req.Mode)
			if prev, seen := same[key]; seen {
				r.setCheck("serve.repeats-identical", prev == o.output, "job %d (%s) output differs from its first run", i, key)
			}
			same[key] = o.output
		}
	}
	r.setCheck("serve.repeats-identical", true, "")

	// /metrics must account exactly for what was sent, warm-up included.
	a := w.after
	var problems []string
	for _, t := range server.Types {
		if a.JobsByType[string(t)] != w.admitted[t] {
			problems = append(problems, fmt.Sprintf("%s admitted %d, sent %d", t, a.JobsByType[string(t)], w.admitted[t]))
		}
	}
	if a.JobsOK != w.okJobs || a.JobsFailed != 0 || a.JobsCancelled != 0 || a.RejectedFull != w.retries429 {
		problems = append(problems, fmt.Sprintf("ok %d (client saw %d), failed %d, cancelled %d, rejected %d (client saw %d)",
			a.JobsOK, w.okJobs, a.JobsFailed, a.JobsCancelled, a.RejectedFull, w.retries429))
	}
	if a.SessionsStarted != w.admitted[server.TypeDebugSession] {
		problems = append(problems, fmt.Sprintf("sessions %d, sent %d", a.SessionsStarted, w.admitted[server.TypeDebugSession]))
	}
	r.setCheck("serve.metrics-accounting", len(problems) == 0, "%s", strings.Join(problems, "; "))
	return nil
}

// warmReplayer checks machines out of a warm post-boot snapshot the way
// a warm pool does, alternating a fork onto fresh hardware with an
// in-place restore of the machine that ran last.
type warmReplayer struct {
	snap *core.Snapshot
	last *core.Machine
	n    int
}

func newWarmReplayer() (*warmReplayer, error) {
	m, err := core.NewMachine()
	if err != nil {
		return nil, err
	}
	return &warmReplayer{snap: m.Snapshot()}, nil
}

// checkout forks or restores a machine, loads seed's program for mode,
// and runs it. With timeRun false only the checkout is timed.
func (w *warmReplayer) checkout(rec *recorder, op, parent int, seed int64, mode core.Mode, timeRun bool) {
	src := progen.Generate(seed).Source(mode, false)
	var m *core.Machine
	if w.n%2 == 0 || w.last == nil {
		sp := rec.begin("core.fork", op, parent)
		f, err := core.Fork(w.snap)
		rec.end(sp, 0)
		if err != nil {
			return
		}
		m = f
	} else {
		m = w.last
		sp := rec.begin("core.restore", op, parent)
		pages, err := m.Restore(w.snap)
		rec.end(sp, float64(pages))
		if err != nil {
			return
		}
	}
	w.n++
	w.last = m
	if !timeRun {
		rec = nil
	}
	sp := rec.begin("core.load", op, parent)
	err := m.LoadProgram(src)
	rec.end(sp, 0)
	if err != nil {
		return
	}
	if mode == core.ModeHardware {
		m.EnableHardwareDelivery(progen.HWVector)
	}
	sp = rec.begin("cpu.run", op, parent)
	_ = m.Run(dt.Budget)
	rec.end(sp, float64(m.CPU().Insts))
}
