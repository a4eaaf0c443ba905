package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one seed, kernel or request share a Trace id; Parent is the id of
// the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Trace  int64  `json:"trace"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same methods at no cost.
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id and a function that closes it and
// returns its duration. On a nil tracer the id is 0 and only the duration is
// measured.
func (t *tracer) begin(name string, trace, parent int64) (int64, func() time.Duration) {
	if t == nil {
		start := time.Now()
		return 0, func() time.Duration { return time.Since(start) }
	}
	id := t.nextID.Add(1)
	start := time.Since(t.origin)
	return id, func() time.Duration {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Trace: trace, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
		return end - start
	}
}

// do runs fn inside a span and returns its duration.
func (t *tracer) do(name string, trace, parent int64, fn func()) time.Duration {
	_, end := t.begin(name, trace, parent)
	fn()
	return end()
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// write stores the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// meanUS is the mean duration of the named spans in microseconds.
func (t *tracer) meanUS(name string) float64 {
	ds := t.durations(name)
	if len(ds) == 0 {
		return 0
	}
	return us(t.total(name)) / float64(len(ds))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
