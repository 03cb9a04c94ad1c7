package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/bgp"
	"scionmpr/internal/bgpsec"
	"scionmpr/internal/core"
	"scionmpr/internal/experiments"
	"scionmpr/internal/topology"
)

// fig5Scale is the Figure-5 configuration: the default laptop scale
// resized the way cmd/experiments -ases does (core ~1/6 of the ASes,
// ISDs of ~10 core ASes) with a 20-minute beaconing window. At 500 ASes
// core beaconing and BGP each take a large share of the run. The seed
// draws fig5Topos topologies; the run cycles through them, because one
// generated topology's cost differs from another's by up to a fifth.
func fig5Scale(o opts, topo int) experiments.Scale {
	s := experiments.DefaultScale()
	s.NumASes = 500
	if o.tiny {
		s.NumASes = 90
	}
	s.CoreSize = s.NumASes / 6
	s.NumISDs = max(2, s.CoreSize/10)
	s.Duration = 20 * time.Minute
	s.Seed = o.seed*fig5Topos + int64(topo)
	return s
}

const fig5Topos = 6

// fig5SetUps is how many times a run sets up, so that setup_s is the
// median of several.
const fig5SetUps = 5

// fig5Topologies builds the full and core topologies RunFig5 builds for
// the scale, plus the intra-ISD topology.
func fig5Topologies(s experiments.Scale) (full, coreTopo, isd *topology.Graph, err error) {
	p := topology.DefaultGenParams()
	p.NumASes = s.NumASes
	p.Tier1 = s.Tier1
	p.Seed = s.Seed
	if full, err = topology.Generate(p); err != nil {
		return nil, nil, nil, err
	}
	if coreTopo, err = topology.ExtractCore(full, s.CoreSize); err != nil {
		return nil, nil, nil, err
	}
	if isd, err = topology.BuildISD(full, s.ISDCores); err != nil {
		return nil, nil, nil, err
	}
	return full, coreTopo, isd, nil
}

func topoDigest(gs ...*topology.Graph) string {
	h := sha256.New()
	var b [8]byte
	for _, g := range gs {
		for _, l := range g.Links {
			for _, v := range []uint64{l.A.Uint64(), l.B.Uint64(), uint64(l.AIf), uint64(l.BIf), uint64(l.Rel)} {
				binary.BigEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runFig5(o opts, r *report) error {
	// Set-up: generate the seed's topologies, fig5SetUps times over, to
	// check that generation is a pure function of the seed.
	var setups []time.Duration
	var digests []string
	t0 := processStart
	for range fig5SetUps {
		var gs []*topology.Graph
		for i := range fig5Topos {
			full, coreTopo, isd, err := fig5Topologies(fig5Scale(o, i))
			if err != nil {
				return err
			}
			gs = append(gs, full, coreTopo, isd)
		}
		digests = append(digests, topoDigest(gs...))
		setups = append(setups, time.Since(t0))
		t0 = time.Now()
	}
	r.expect("fig5.topology_deterministic", digests[0], digests[len(digests)-1])

	var phases []*phase
	var secs, tracedSecs []float64
	refs := make([]*experiments.Fig5Result, fig5Topos)
	var timed time.Duration
	total := time.Duration(o.seconds * float64(time.Second))
	// Untraced, every repetition runs RunFig5 on the next topology. Traced,
	// each topology's RunFig5 is followed by the traced composition.
	for rep := 0; rep <= fig5Topos || timed < total; rep++ {
		i := rep % fig5Topos
		s := fig5Scale(o, i)
		if o.trace && rep%2 == 1 {
			i = (rep - 1) % fig5Topos
			s = fig5Scale(o, i)
			ph := startPhase(o.trace)
			res, st, err := fig5Traced(s)
			if err != nil {
				return err
			}
			ph.end()
			timed += ph.wall
			phases = append(phases, ph)
			tracedSecs = append(tracedSecs, ph.wall.Seconds())
			r.expect("fig5.traced_matches_runfig5", vecDigest(refs[i]), vecDigest(res))
			st.report(r)
			r.ops(1, 0)
			continue
		}
		ph := startPhase(o.trace)
		res, err := experiments.RunFig5(s)
		if err != nil {
			return err
		}
		ph.end()
		timed += ph.wall
		r.ops(1, 0)
		secs = append(secs, ph.wall.Seconds())
		if refs[i] == nil {
			refs[i] = res
			checkFig5Shape(r, res)
			fmt.Printf("fig5: %d ASes, %d core, topology seed %d, series digest %s\n", s.NumASes, s.CoreSize, s.Seed, relDigest(res))
		} else {
			r.expect("fig5.series_digest_stable", relDigest(refs[i]), relDigest(res))
		}
		if !o.trace {
			phases = append(phases, ph)
		}
	}
	if o.trace {
		r.addGC(phases)
		r.overhead(secs, tracedSecs)
		return nil
	}
	var walls, allocs [fig5Topos][]float64
	for rep, ph := range phases {
		walls[rep%fig5Topos] = append(walls[rep%fig5Topos], ph.wall.Seconds())
		allocs[rep%fig5Topos] = append(allocs[rep%fig5Topos], ph.allocMB)
	}
	wall, alloc := meanOfMedians(walls[:]), meanOfMedians(allocs[:])
	r.addSetup(setups)
	r.add("ops_per_s", "1/s", 1/wall)
	r.add("op_p50_us", "us", wall*1e6)
	r.add("alloc_kb_per_op", "KB", alloc*1e3)
	for _, ph := range phases {
		r.add("alloc_mb", "MB", ph.allocMB)
	}
	r.add("fig5_s", "s", secs...)
	return nil
}

// relative returns series relative to BGP, dropping monitors without a
// measurement (as Fig5Result.Series does).
func relative(res *experiments.Fig5Result, series []float64) []float64 {
	var out []float64
	for i, v := range series {
		if math.IsNaN(v) || res.BGP[i] <= 0 {
			continue
		}
		out = append(out, v/res.BGP[i])
	}
	return out
}

func hashFloats(h io.Writer, xs []float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(len(xs)))
	h.Write(b[:])
	for _, x := range xs {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// relDigest digests the relative Figure-5 series.
func relDigest(res *experiments.Fig5Result) string {
	h := sha256.New()
	for _, s := range [][]float64{res.BGPsec, res.CoreBaseline, res.CoreDiversity, res.IntraBaseline} {
		hashFloats(h, relative(res, s))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// vecDigest digests the monitors and every per-monitor byte vector.
func vecDigest(res *experiments.Fig5Result) string {
	h := sha256.New()
	for _, m := range res.Monitors {
		h.Write([]byte(m.String()))
	}
	for _, s := range [][]float64{res.BGP, res.BGPsec, res.CoreBaseline, res.CoreDiversity, res.IntraBaseline} {
		hashFloats(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkFig5Shape checks the orderings the paper reports (§5.2): core
// diversity and intra-ISD beaconing cost less than baseline core
// beaconing, and every ratio is a positive finite number.
func checkFig5Shape(r *report, res *experiments.Fig5Result) {
	base := median(relative(res, res.CoreBaseline))
	div := median(relative(res, res.CoreDiversity))
	intra := median(relative(res, res.IntraBaseline))
	sec := median(relative(res, res.BGPsec))
	var bad int
	for _, s := range [][]float64{res.BGPsec, res.CoreBaseline, res.CoreDiversity, res.IntraBaseline} {
		for _, v := range relative(res, s) {
			if !(v > 0) || math.IsInf(v, 0) {
				bad++
			}
		}
	}
	r.atLeast("fig5.monitors", 1, int64(len(res.Monitors)))
	r.expect("fig5.nonpositive_ratios", 0, bad)
	r.less("fig5.diversity_below_baseline", div, base, "core diversity/BGP vs core baseline/BGP")
	r.less("fig5.intra_below_baseline", intra, base, "intra-ISD/BGP vs core baseline/BGP")
	r.less("fig5.bgpsec_above_bgp", 1, sec, "BGP vs BGPsec, relative to BGP")
}

// fig5Stats are the traced composition's per-layer measurements.
type fig5Stats struct {
	spans  map[string]*spanStats
	allocs map[string]float64 // MB allocated per stage
	live   map[string]float64 // MB live after the stage, result reachable
	events map[string]float64 // simulator events per stage
	bgpUpd float64
}

func (st *fig5Stats) report(r *report) {
	r.add("topology.build_s", "s", st.spans["topology.build"].seconds())
	for _, stage := range []string{"core_baseline", "core_diversity", "intra"} {
		r.add("beacon."+stage+"_s", "s", st.spans["beacon."+stage].seconds())
		r.add("beacon."+stage+"_alloc_mb", "MB", st.allocs[stage])
		r.add("beacon."+stage+"_live_mb", "MB", st.live[stage])
	}
	r.add("bgp.run_s", "s", st.spans["bgp.run"].seconds())
	r.add("bgp.alloc_mb", "MB", st.allocs["bgp"])
	r.add("bgp.live_mb", "MB", st.live["bgp"])
	r.add("bgp.updates", "count", st.bgpUpd)
	r.add("bgpsec.accounting_s", "s", st.spans["bgpsec.accounting"].seconds())
	for _, stage := range []string{"core_baseline", "core_diversity", "bgp"} {
		r.add("sim."+stage+"_events", "count", st.events[stage])
	}
}

// fig5Traced composes Figure 5 from the same public calls RunFig5 makes,
// in the same order, with a span around each layer's call. It returns a
// result whose vectors must equal RunFig5's.
func fig5Traced(s experiments.Scale) (*experiments.Fig5Result, *fig5Stats, error) {
	tr := newTracer()
	st := &fig5Stats{allocs: map[string]float64{}, live: map[string]float64{}, events: map[string]float64{}}
	// stage runs fn inside a span, recording its allocation; keep is
	// called after a forced GC while fn's result is still reachable, so
	// the live heap includes what the stage retained.
	stage := func(key, span string, fn func() (any, error)) (any, error) {
		a0 := readMetric(mAllocs)
		id := tr.begin(span)
		v, err := fn()
		tr.end(id)
		st.allocs[key] = float64(readMetric(mAllocs)-a0) / 1e6
		runtime.GC()
		st.live[key] = float64(readMetric(mLive)) / 1e6
		runtime.KeepAlive(v)
		return v, err
	}

	id := tr.begin("topology.build")
	p := topology.DefaultGenParams()
	p.NumASes = s.NumASes
	p.Tier1 = s.Tier1
	p.Seed = s.Seed
	full, err := topology.Generate(p)
	if err != nil {
		return nil, nil, err
	}
	coreTopo, err := topology.ExtractCore(full, s.CoreSize)
	if err != nil {
		return nil, nil, err
	}
	members := map[addr.IA]bool{}
	for _, ia := range coreTopo.IAs() {
		members[ia] = true
	}
	_ = full.Subgraph(members)
	monitors := fig5Monitors(full, s.Monitors)
	tr.end(id)
	res := &experiments.Fig5Result{Scale: s, Monitors: monitors}
	monthScale := float64(30*24*time.Hour) / float64(s.Duration)
	monitorBytes := func(run *beacon.RunResult) []float64 {
		out := make([]float64, len(monitors))
		for i, ia := range monitors {
			if run.Cfg.Topo.AS(ia) == nil {
				out[i] = math.NaN()
				continue
			}
			out[i] = float64(run.Net.TotalRx(ia)+run.Net.TotalTx(ia)) * monthScale
		}
		return out
	}
	beaconRun := func(key string, topo *topology.Graph, mode beacon.Mode, f core.Factory) ([]float64, error) {
		v, err := stage(key, "beacon."+key, func() (any, error) {
			cfg := beacon.DefaultRunConfig(topo, mode, f, s.StoreLimit)
			cfg.Interval = s.Interval
			cfg.Lifetime = s.Lifetime
			cfg.Duration = s.Duration
			cfg.Workers = s.Workers
			return beacon.Run(cfg)
		})
		if err != nil {
			return nil, err
		}
		run := v.(*beacon.RunResult)
		st.events[key] = float64(run.Sim.Executed)
		return monitorBytes(run), nil
	}
	if res.CoreBaseline, err = beaconRun("core_baseline", coreTopo, beacon.CoreMode, core.NewBaseline(s.DissemLimit)); err != nil {
		return nil, nil, err
	}
	if res.CoreDiversity, err = beaconRun("core_diversity", coreTopo, beacon.CoreMode, core.NewDiversity(core.DefaultParams(s.DissemLimit))); err != nil {
		return nil, nil, err
	}
	isdTopo, err := topology.BuildISD(full, s.ISDCores)
	if err != nil {
		return nil, nil, err
	}
	if res.IntraBaseline, err = beaconRun("intra", isdTopo, beacon.IntraMode, core.NewBaseline(s.DissemLimit)); err != nil {
		return nil, nil, err
	}
	v, err := stage("bgp", "bgp.run", func() (any, error) { return bgp.Run(bgp.DefaultConfig(full)) })
	if err != nil {
		return nil, nil, err
	}
	bgpRes := v.(*bgp.Result)
	st.events["bgp"] = float64(bgpRes.Sim.Executed)
	for _, sp := range bgpRes.Speakers {
		st.bgpUpd += float64(sp.SentUpdates)
	}

	id = tr.begin("bgpsec.accounting")
	prefixes := bgp.CalibratePrefixCounts(bgp.SyntheticPrefixCounts(full), bgp.RealInternetMeanPrefixes)
	bgpAcct := bgp.MonthlyAccounting{Prefixes: prefixes, ChurnPerMonth: 30}
	secAcct := bgpsec.DefaultAccounting(prefixes)
	for _, m := range monitors {
		sp := bgpRes.Speakers[m]
		res.BGP = append(res.BGP, bgpAcct.BGPMonthlyBytes(sp))
		res.BGPsec = append(res.BGPsec, secAcct.MonthlyBytes(sp))
	}
	tr.end(id)
	st.spans = summary(tr)
	return res, st, nil
}

// fig5Monitors picks the n highest-degree ASes, ties broken by IA — the
// monitor choice RunFig5 makes.
func fig5Monitors(g *topology.Graph, n int) []addr.IA {
	ias := g.IAs()
	deg := func(ia addr.IA) int { return g.AS(ia).Degree() }
	sort.Slice(ias, func(i, j int) bool {
		if di, dj := deg(ias[i]), deg(ias[j]); di != dj {
			return di > dj
		}
		return ias[i].Less(ias[j])
	})
	return ias[:min(n, len(ias))]
}
