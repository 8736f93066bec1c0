package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented).
type span struct {
	Name   string  `json:"name"`
	Op     int64   `json:"op"`     // the operation the call belongs to
	Parent int     `json:"parent"` // index of the enclosing span, -1 for an op's root
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path runs the same code with no spans.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// layerTimes sums, per span name, the spans' self time — each span's
// duration minus its child spans' durations — and counts them. An op's
// child spans run one after another on one goroutine, so they never
// overlap.
func (t *tracer) layerTimes() (self map[string]float64, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self, count = map[string]float64{}, map[string]int{}
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += d
		count[s.Name]++
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self, count
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
