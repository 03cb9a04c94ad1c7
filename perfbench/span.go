package main

import "time"

// tracer records spans around the harness's calls into the program's
// layers. Spans are kept in memory and summarised when the run ends. A
// tracer belongs to one goroutine: spans opened on it nest strictly, so
// a span's parent is the innermost span open when it begins.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	// counts are events counted at the same boundaries as the spans.
	counts map[string]int
}

type span struct {
	name       string
	parent     int32
	start, end time.Duration
	childTime  time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int{}} }

// count records n events of the named kind.
func (t *tracer) count(name string, n int) { t.counts[name] += n }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	if s.parent >= 0 {
		t.spans[s.parent].childTime += s.end - s.start
	}
}

// span runs fn inside a span named name. On a nil tracer it runs fn
// alone, so untraced runs share the traced code path.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.begin(name)
	fn()
	t.end(id)
}

// spanCost measures what opening and closing one span costs.
func spanCost() time.Duration {
	const n = 1 << 16
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibration"))
	}
	return time.Since(start) / n
}

// spanStats summarises every span of one name.
type spanStats struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of durations minus time covered by children
	durs  []time.Duration
}

// summary aggregates spans by name across tracers.
func summary(ts ...*tracer) map[string]*spanStats {
	out := map[string]*spanStats{}
	for _, t := range ts {
		for _, s := range t.spans {
			st := out[s.name]
			if st == nil {
				st = &spanStats{}
				out[s.name] = st
			}
			d := s.end - s.start
			st.count++
			st.total += d
			st.self += d - s.childTime
			st.durs = append(st.durs, d)
		}
	}
	return out
}

// q returns the q-quantile of the span durations in the given unit.
func (s *spanStats) q(q float64, unit time.Duration) float64 {
	if s == nil || len(s.durs) == 0 {
		return 0
	}
	return durQuantile(s.durs, q, unit)
}

// seconds returns the total duration in seconds.
func (s *spanStats) seconds() float64 {
	if s == nil {
		return 0
	}
	return s.total.Seconds()
}
