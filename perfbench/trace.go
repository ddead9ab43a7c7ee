package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op; Parent is the enclosing span's index plus one (0 = none).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Value carries a count measured with the span (pages copied by a
	// restore, bytes allocated by an assembly, instructions retired by
	// a run); zero when the span has none.
	Value float64 `json:"value,omitempty"`
}

// recorder keeps spans in memory; they are written out once, when the
// run ends. A nil *recorder records nothing, so untraced runs pay only
// a nil check at each boundary.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex // serve's clients record concurrently
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (index+1) for end and for
// children's parent field.
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return 0
	}
	start := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start})
	return len(r.spans)
}

// end closes span id, attaching value.
func (r *recorder) end(id int, value float64) {
	if r == nil || id == 0 {
		return
	}
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = end
	s.Value = value
}

// durations returns every span named name, in microseconds, with the
// spans' values alongside.
func (r *recorder) durations(name string) (us, values []float64) {
	for _, s := range r.spans {
		if s.Name == name {
			us = append(us, float64(s.End-s.Start)/1e3)
			values = append(values, s.Value)
		}
	}
	return us, values
}

// selfTimes returns, for every span named name, its duration minus the
// durations of the spans listed as its children, in microseconds. A
// child is a span whose Parent is the named span.
func (r *recorder) selfTimes(name string) []float64 {
	child := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[i+1])/1e3)
		}
	}
	return out
}

// write dumps the spans as NDJSON to path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// spanCostUS measures what recording one span costs on this host, in
// microseconds: the median of several batches of begin/end pairs on a
// scratch recorder.
func spanCostUS() float64 {
	const batch = 20000
	var per []float64
	for k := 0; k < 5; k++ {
		r := &recorder{t0: time.Now(), spans: make([]span, 0, batch)}
		t := time.Now()
		for i := 0; i < batch; i++ {
			r.end(r.begin("calibrate", i, 0), 0)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/1e3/batch)
	}
	return median(per)
}
