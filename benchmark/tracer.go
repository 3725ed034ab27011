package main

import (
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"` // index into the span list, -1 for a root
	StartMS float64 `json:"startMS"`
	DurMS   float64 `json:"durMS"`
	// Allocs counts heap objects allocated while the span was open, by any
	// goroutine.
	Allocs uint64 `json:"allocs"`
}

// tracer keeps spans in memory as a tree; open spans nest.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	probe []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		probe: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.probe)
	return t.probe[0].Value.Uint64()
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name:    name,
		Parent:  parent,
		StartMS: ms(time.Since(t.epoch)),
		Allocs:  t.allocs(),
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the innermost open span, which must be i.
func (t *tracer) end(i int) *span {
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.DurMS = ms(time.Since(t.epoch)) - s.StartMS
	s.Allocs = t.allocs() - s.Allocs
	return s
}

// do runs f inside a span named name and returns f's error.
func (t *tracer) do(name string, f func() error) error {
	i := t.begin(name)
	err := f()
	t.end(i)
	return err
}

// last returns the duration (ms) of the latest span with the given name.
func (t *tracer) last(name string) float64 {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return t.spans[i].DurMS
		}
	}
	return 0
}

// durations returns the durations (ms) of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.DurMS)
		}
	}
	return out
}

// allocCounts returns the allocation counts of every span with the name.
func (t *tracer) allocCounts(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Allocs))
		}
	}
	return out
}

// childSum sums the durations of span i's direct children, skipping the
// names in skip.
func (t *tracer) childSum(i int, skip ...string) float64 {
	var sum float64
next:
	for _, s := range t.spans[i+1:] {
		if s.Parent != i {
			continue
		}
		for _, n := range skip {
			if s.Name == n {
				continue next
			}
		}
		sum += s.DurMS
	}
	return sum
}
