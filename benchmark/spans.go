package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. The program's own internal/trace spans are deliberately not
// the source: later changes will move them, and a ruler may not move with
// the thing it measures.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for an op's root span
	Op      int    `json:"op"`     // spans of one replayed op share it
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was made
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; write puts them on disk at the end.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // span i has ID i+1
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (r *recorder) begin(name string, parent, op int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// timed records fn as a span and passes its error through.
func (r *recorder) timed(name string, parent, op int, fn func() error) error {
	id := r.begin(name, parent, op)
	defer r.end(id)
	return fn()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its child spans cover. Children running side by side (the two
// workers of a cluster round) are not subtracted twice.
func (r *recorder) selfTimes() map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.StartNs - b.StartNs) })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// stageMedians returns the median self time of each span name, taking one
// value per op: the sum over the op's spans of that name, at nominal
// speed. slow[op] is the machine's slowdown while the op was replayed.
func (r *recorder) stageMedians(slow map[int]float64) map[string]time.Duration {
	self := r.selfTimes()
	perOp := make(map[string]map[int]time.Duration)
	for _, s := range r.spans {
		if perOp[s.Name] == nil {
			perOp[s.Name] = make(map[int]time.Duration)
		}
		perOp[s.Name][s.Op] += time.Duration(float64(self[s.ID]) / slow[s.Op])
	}
	out := make(map[string]time.Duration, len(perOp))
	for name, ops := range perOp {
		v := make([]time.Duration, 0, len(ops))
		for _, d := range ops {
			v = append(v, d)
		}
		out[name] = medianDuration(v)
	}
	return out
}

// explained returns, per op, the part of the root span its stages cover,
// at nominal speed: the blocking path the benchmark can name.
func (r *recorder) explained(slow map[int]float64) []time.Duration {
	self := r.selfTimes()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Parent == 0 {
			out = append(out, time.Duration(float64(time.Duration(s.EndNs-s.StartNs)-self[s.ID])/slow[s.Op]))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	for _, s := range r.spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) was never ended", s.ID, s.Name)
		}
	}
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
