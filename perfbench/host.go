package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes where and how a run was measured, so that a set
// of runs that disagrees with another can be explained. The CPU
// accounting covers the whole run, set-up included.
type hostRecord struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`

	WallS float64 `json:"wall_s"`
	// OwnCPUS is this process's user+system CPU time.
	OwnCPUS float64 `json:"own_cpu_s"`
	// StealS is the hypervisor steal time of the whole machine, and
	// OthersCPUS the busy CPU time of every other process on it, both
	// read from /proc/stat over the run. Absent /proc/stat, both are -1.
	StealS     float64 `json:"steal_s"`
	OthersCPUS float64 `json:"others_cpu_s"`
}

// hostClock is a start-of-run reading of the machine's CPU counters.
type hostClock struct {
	wall         time.Time
	busy, steal  float64 // seconds, whole machine
	own          float64 // seconds, this process
	procStatRead bool
}

func readHostClock() hostClock {
	h := hostClock{wall: time.Now(), own: ownCPU()}
	h.busy, h.steal, h.procStatRead = procStat()
	return h
}

// record finishes the host record for a run that began at start.
func (start hostClock) record() hostRecord {
	end := readHostClock()
	rec := hostRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		WallS:      end.wall.Sub(start.wall).Seconds(),
		OwnCPUS:    end.own - start.own,
		StealS:     -1,
		OthersCPUS: -1,
	}
	if start.procStatRead && end.procStatRead {
		rec.StealS = end.steal - start.steal
		rec.OthersCPUS = max(0, (end.busy-start.busy)-rec.OwnCPUS)
	}
	return rec
}

// procStat returns the machine's busy time (steal not included) and
// steal time in seconds from the aggregate "cpu" line of /proc/stat.
func procStat() (busy, steal float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]
	var v [8]float64
	for i := range v {
		n, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return 0, 0, false
		}
		v[i] = n / 100 // USER_HZ is 100 on Linux
	}
	busy = v[0] + v[1] + v[2] + v[5] + v[6]
	return busy, v[7], true
}

func ownCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git;
// a checkout without .git (an exported tree) reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(l, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return -1
}
