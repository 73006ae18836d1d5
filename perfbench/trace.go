package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the recorder's epoch; Parent is the index of the enclosing span
// (-1 for a root); Trace groups the spans of one frame, transmission or
// grid pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Trace  int32  `json:"trace"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// recorder keeps spans in memory until the run ends. A disabled
// recorder records nothing, so the same code path measures the tracing
// overhead.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{on: true, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when disabled).
func (r *recorder) begin(name string, trace, parent int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)),
		Parent: parent, Trace: trace})
	return int32(len(r.spans) - 1)
}

// end closes span id.
func (r *recorder) end(id int32) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.epoch))
	}
}

// add records a span whose start and end the caller measured.
func (r *recorder) add(name string, start, end time.Time, trace, parent int32) {
	if r.on {
		r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.epoch)),
			End: int64(end.Sub(r.epoch)), Parent: parent, Trace: trace})
	}
}

// durations returns the duration in µs of every span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.us())
		}
	}
	return out
}

// byTrace returns the duration in µs of the span named name in each
// trace (the last one if a trace holds several).
func (r *recorder) byTrace(name string) map[int32]float64 {
	out := map[int32]float64{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Trace] = s.us()
		}
	}
	return out
}

// write dumps the spans as JSON lines under workDir/traces.
func (r *recorder) write(o opts) (string, error) {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// timing reports name's p50, p99 and sample count, and a summary line.
func (res *result) timing(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	p50, p99 := quantile(samples, 0.5), quantile(samples, 0.99)
	res.set(name+".p50", p50)
	res.set(name+".p99", p99)
	res.set(name+".n", float64(len(samples)))
	res.note("%-36s p50 %10.2f  p99 %10.2f  n %d", name, p50, p99, len(samples))
}

// count reports a per-layer count or ratio with a summary line.
func (res *result) count(name string, v float64) {
	res.set(name, v)
	res.note("%-36s %g", name, v)
}
