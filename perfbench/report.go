package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef is a metric the JSON result line carries, with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, one value each, on
// every workload. Each workload defines its own operation (see
// README.md): a Figure-5 run, a completed flow, a minimum-size packet,
// or a path lookup.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer are the metrics every traced run prints. A layer that does no
// work in a workload's timed phase reads 0 there.
var perLayer = []metricDef{
	{"topology.build_s", "s"},
	{"beacon.core_baseline_s", "s"},
	{"beacon.core_diversity_s", "s"},
	{"beacon.intra_s", "s"},
	{"beacon.core_baseline_alloc_mb", "MB"},
	{"beacon.core_diversity_alloc_mb", "MB"},
	{"beacon.intra_alloc_mb", "MB"},
	{"beacon.core_baseline_live_mb", "MB"},
	{"beacon.core_diversity_live_mb", "MB"},
	{"beacon.intra_live_mb", "MB"},
	{"bgp.run_s", "s"},
	{"bgp.alloc_mb", "MB"},
	{"bgp.live_mb", "MB"},
	{"bgp.updates", "count"},
	{"bgpsec.accounting_s", "s"},
	{"sim.core_baseline_events", "count"},
	{"sim.core_diversity_events", "count"},
	{"sim.bgp_events", "count"},
	{"scion.bootstrap_s", "s"},
	{"scion.paths_calls", "count"},
	{"scion.paths_s", "s"},
	{"scion.paths_p50_us", "us"},
	{"scion.paths_p99_us", "us"},
	{"scion.paths_empty_ratio", "ratio"},
	{"strategy.picks", "count"},
	{"strategy.pick_s", "s"},
	{"strategy.pick_p50_ns", "ns"},
	{"traffic.self_s", "s"},
	{"traffic.requeries", "count"},
	{"traffic.reprobes", "count"},
	{"traffic.revocations", "count"},
	{"traffic.switches", "count"},
	{"dataplane.fabric_forwarded", "count"},
	{"dataplane.fabric_revocations", "count"},
	{"sim.flows_events", "count"},
	{"chaos.injections", "count"},
	{"slayers.decode_ns", "ns"},
	{"dataplane.verify_ns", "ns"},
	{"dataplane.inject_ns", "ns"},
	{"forward.burst_p99_us", "us"},
	{"dataplane.flush_p50_us", "us"},
	{"dataplane.flush_p99_us", "us"},
	{"forward.gen_late_p99_us", "us"},
	{"dataplane.batch_fill", "pkt/batch"},
	{"dataplane.hops_per_pkt", "hops"},
	{"dataplane.delivered_ratio", "ratio"},
	{"dataplane.scmp_ratio", "ratio"},
	{"dataplane.bad_mac", "count"},
	{"dataplane.gray_drops", "count"},
	{"dataplane.malformed", "count"},
	{"pathsrv.register_us", "us"},
	{"pathsrv.revoke_us", "us"},
	{"pathsrv.publish_us", "us"},
	{"pathsrv.published_shards_per_publish", "shards"},
	{"pathsrv.invalidations_per_publish", "pairs"},
	{"pathsrv.cache_hit_ratio", "ratio"},
	{"pathsrv.wal_mb", "MB"},
	{"pathsrv.wal_records", "count"},
	{"pathsrv.checkpoints", "count"},
	{"pathsrv.replayed_records", "count"},
	{"pathsrv.restart_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_heap_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// report collects one run's metrics, output checks and operation counts.
type report struct {
	o         opts
	attempted int64
	failed    int64
	checks    []checkResult
	order     []string
	metrics   map[string]*metric
}

type checkResult struct {
	name, detail string
	ok           bool
}

// metric is one named measurement; its reported value is the median of
// its samples.
type metric struct {
	unit    string
	samples []float64
}

func newReport(o opts) *report {
	return &report{o: o, metrics: map[string]*metric{}}
}

// add records samples of a metric.
func (r *report) add(name, unit string, vals ...float64) {
	m, ok := r.metrics[name]
	if !ok {
		m = &metric{unit: unit}
		r.metrics[name] = m
		r.order = append(r.order, name)
	}
	m.samples = append(m.samples, vals...)
}

// ops counts operations attempted and failed.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// expect records an output check comparing a computed value against the
// expected one. The check named by --corrupt has its expected value
// altered, which must make it fail.
func (r *report) expect(name string, want, got any) {
	w, g := fmt.Sprint(want), fmt.Sprint(got)
	if r.o.corrupt == name {
		w += "~corrupted"
	}
	detail := g
	if w != g {
		detail = fmt.Sprintf("want %s, got %s", w, g)
	}
	r.checks = append(r.checks, checkResult{name: name, ok: w == g, detail: detail})
}

// atLeast records an output check that a count reaches its floor. The
// check named by --corrupt has its floor raised above the count.
func (r *report) atLeast(name string, floor, got int64) {
	if r.o.corrupt == name {
		floor = got + 1
	}
	r.checks = append(r.checks, checkResult{name: name, ok: got >= floor, detail: fmt.Sprintf("%d >= %d", got, floor)})
}

// less records an output check that a measured value lies below a
// reference. The check named by --corrupt has its reference lowered to
// the value.
func (r *report) less(name string, got, ref float64, what string) {
	if r.o.corrupt == name {
		ref = got
	}
	r.checks = append(r.checks, checkResult{name: name, ok: got < ref, detail: fmt.Sprintf("%s: %.4g < %.4g", what, got, ref)})
}

func (r *report) correct() bool {
	if len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result line.
func (r *report) print(w io.Writer) error {
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-32s %-6s %s\n", c.name, status, c.detail)
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", r.attempted, r.failed)
	// Metrics outside the declared set are the workload's own details;
	// they are printed but not part of the result line.
	declared := endToEnd
	if r.o.trace {
		declared = perLayer
	}
	inResult := map[string]bool{}
	for _, d := range declared {
		inResult[d.name] = true
	}
	for _, name := range r.order {
		m := r.metrics[name]
		q := quartiles(m.samples)
		kind := "detail"
		if inResult[name] {
			kind = "metric"
		}
		fmt.Fprintf(w, "%s %-36s %14.6g %-6s q1=%.6g q3=%.6g n=%d\n", kind, name, q[1], m.unit, q[0], q[2], len(m.samples))
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range declared {
		v := 0.0
		if m, ok := r.metrics[d.name]; ok {
			if m.unit != d.unit {
				return fmt.Errorf("metric %s recorded in %s, declared in %s", d.name, m.unit, d.unit)
			}
			v = median(m.samples)
		} else if !r.o.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating between order statistics (NaN when xs is empty).
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return [3]float64{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

// meanOfMedians is the mean over input sets of each set's median. A run
// that cycles through several inputs drawn from its seed reports this:
// a median over all its repetitions would follow whichever input's cost
// sits in the middle, and so vary with the seed as much as one input.
func meanOfMedians(sets [][]float64) float64 {
	var sum float64
	for _, s := range sets {
		sum += median(s)
	}
	return sum / float64(len(sets))
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quartiles(xs)[1] }

// durQuantile is the q-quantile of durations, in the given unit.
// Durations are whole nanoseconds, so many samples tie on one tick; the
// quantile is placed within its tick by its rank among the tied samples,
// as if the tick's samples were spread evenly across it.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := q * float64(len(s))
	i := min(int(rank), len(s)-1)
	v := s[i]
	lo := sort.Search(len(s), func(j int) bool { return s[j] >= v })
	hi := sort.Search(len(s), func(j int) bool { return s[j] > v })
	frac := (rank - float64(lo)) / float64(hi-lo)
	return (float64(v) - 0.5 + frac) / float64(unit)
}

// runtime/metrics names read by the harness.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// phase measures one timed phase: wall time, bytes allocated, GC cycles
// and pauses, and the peak of the live heap, sampled by a goroutine.
type phase struct {
	start             time.Time
	allocs0, gc0      uint64
	pause0            uint64
	stop              chan struct{}
	done              sync.WaitGroup
	peakLive          uint64
	wall              time.Duration
	allocMB, peakMB   float64
	gcCycles, pauseMs float64
}

// livePoll is how often the live heap is sampled. The live heap only
// changes at the end of a GC cycle, so finer sampling finds nothing new.
const livePoll = 2 * time.Millisecond

// startPhase starts measuring a phase. Only a traced run samples the live
// heap: the sampler wakes every livePoll and would compete with the
// measured goroutines for the cores.
func startPhase(sampleHeap bool) *phase {
	p := &phase{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.pause0 = ms.PauseTotalNs
	p.allocs0 = readMetric(mAllocs)
	p.gc0 = readMetric(mGCCycles)
	p.peakLive = readMetric(mLive)
	if sampleHeap {
		p.sample()
	}
	p.start = time.Now()
	return p
}

// sample polls the live heap until the phase ends.
func (p *phase) sample() {
	p.stop = make(chan struct{})
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(livePoll)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				// Read by end only after done.Wait returns.
				if v := readMetric(mLive); v > p.peakLive {
					p.peakLive = v
				}
			}
		}
	}()
}

// end stops the phase and fills in its measurements.
func (p *phase) end() *phase {
	p.wall = time.Since(p.start)
	if p.stop != nil {
		close(p.stop)
		p.done.Wait()
	}
	if v := readMetric(mLive); v > p.peakLive {
		p.peakLive = v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocMB = float64(readMetric(mAllocs)-p.allocs0) / 1e6
	p.peakMB = float64(p.peakLive) / 1e6
	p.gcCycles = float64(readMetric(mGCCycles) - p.gc0)
	p.pauseMs = float64(ms.PauseTotalNs-p.pause0) / 1e6
	return p
}

// addSetup records the set-up durations as setup_s.
func (r *report) addSetup(setups []time.Duration) {
	for _, d := range setups {
		r.add("setup_s", "s", d.Seconds())
	}
}

// addGC records the per-layer runtime metrics of the traced phases. The
// peak live heap is one of them: on fig5 it moves by a quarter between
// seeds, too much for an end-to-end bound.
func (r *report) addGC(phases []*phase) {
	for _, p := range phases {
		r.add("runtime.gc_cycles", "count", p.gcCycles)
		r.add("runtime.gc_pause_ms", "ms", p.pauseMs)
		r.add("runtime.peak_heap_mb", "MB", p.peakMB)
	}
}

// overhead records the tracing overhead: traced minus untraced time of
// the same work, as a percentage of the untraced time.
func (r *report) overhead(untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	r.add("trace.overhead_pct", "%", 100*(t-u)/u)
}
