package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/graphalg"
	"scionmpr/internal/sim"
	"scionmpr/internal/strategy"
	"scionmpr/internal/topology"
	"scionmpr/internal/traffic"
	"scionmpr/scion"
)

// flowsParams size the flows workload: a trafficsim-shaped transfer
// (Poisson arrivals, bounded-Pareto sizes, Zipf pair popularity) over a
// generated ISD, with a link-flap storm across the arrival period. The
// flap stagger (period/faults) exceeds the down time, so one link at a
// time is down. The short flows finish within milliseconds, so few are
// in flight when a link fails; one long flow per pair, started with the
// storm, is, so the flaps reach the SCMP, revocation and re-probe chain.
type flowsParams struct {
	ases, tier1, cores, pairs, flows, faults int
	rate                                     float64 // flow arrivals per virtual second
	flapDown, flapPeriod                     time.Duration
	longSize                                 int64 // bytes of each long flow
	// sourceTTL bounds how long a source distrusts a link an SCMP
	// revoked: short enough that the revocations the long flows learn
	// expire while they are still in flight, which makes their sources
	// re-probe for paths.
	sourceTTL time.Duration
	// minRevocations and minReprobes are floors per flow set, below the
	// least that seeds 1-8 and 11-20 reached (8 revocations and 6
	// re-probes over 54 flow sets): a storm that no longer reaches SCMP
	// and revocation handling falls below them.
	minRevocations, minReprobes int64
}

// flowsRevocationTTL bounds how long a revocation hides paths at the
// path servers. It outlasts a flap's down time, so a flap is learned
// once; the engine's re-query backoff outlasts it, so no flow gives up
// while a flapped link heals.
// flowsTopoSeed fixes the ISD and the flap storm. Every seed runs on
// the same network, so a run's cost reflects the code and the seed's
// flows, not which topology the seed drew: path combination after a
// storm flushes the path cache dominates this workload, and its cost
// differs several-fold between generated topologies.
const flowsTopoSeed = 1

const (
	flowsRevocationTTL = 1500 * time.Millisecond
	flowsMaxRetries    = 8
)

func flowsSize(o opts) flowsParams {
	if o.tiny {
		return flowsParams{ases: 60, tier1: 4, cores: 3, pairs: 12, flows: 400, faults: 2, rate: 2000,
			flapDown: 50 * time.Millisecond, flapPeriod: 200 * time.Millisecond, longSize: 64 << 20,
			sourceTTL:      100 * time.Millisecond,
			minRevocations: 1, minReprobes: 1}
	}
	return flowsParams{ases: 300, tier1: 4, cores: 5, pairs: 40, flows: 6000, faults: 4, rate: 5000,
		flapDown: 150 * time.Millisecond, flapPeriod: time.Second, longSize: 16 << 20,
		sourceTTL:      500 * time.Millisecond,
		minRevocations: 5, minReprobes: 3}
}

// flowsRun is one set-up network with its engine and flows loaded.
type flowsRun struct {
	net    *scion.Network
	eng    *traffic.Engine
	chaos  *chaos.Engine
	faults int
}

// flowsSetup bootstraps a network and loads the workload. With a tracer,
// the engine's path provider and scheduler are wrapped in spans.
func flowsSetup(seed int64, p flowsParams, tr *tracer) (*flowsRun, error) {
	topo, err := scion.GenerateISDTopology(p.ases, p.tier1, p.cores, flowsTopoSeed)
	if err != nil {
		return nil, err
	}
	var id int32
	if tr != nil {
		id = tr.begin("scion.bootstrap")
	}
	netOpts := scion.DefaultOptions()
	netOpts.RevocationTTL = flowsRevocationTTL
	net, err := scion.NewNetwork(topo, netOpts)
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		return nil, err
	}
	var pairs [][2]addr.IA
	for _, pr := range graphalg.SamplePairs(topo, p.pairs) {
		if fps, err := net.Paths(pr[0], pr[1]); err == nil && len(fps) > 0 {
			pairs = append(pairs, pr)
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no reachable pairs on a %d-AS ISD", topo.NumASes())
	}
	cands, err := flapCandidates(net, pairs, p.faults)
	if err != nil {
		return nil, err
	}
	specs := traffic.Generate(traffic.WorkloadParams{
		Flows:       p.flows,
		Pairs:       pairs,
		ArrivalRate: p.rate,
		MeanSize:    128 << 10,
		ZipfS:       1.2,
		Seed:        seed,
	})
	arrivals := specs[len(specs)-1].Start
	for _, pr := range pairs {
		specs = append(specs, traffic.FlowSpec{ID: len(specs), Src: pr[0], Dst: pr[1], Start: arrivals / 8, Size: p.longSize})
	}
	nfault := min(p.faults, len(cands))
	sched := chaos.FlapChurn(flowsTopoSeed, cands, nfault, sim.Time(arrivals/8), sim.Time(arrivals),
		p.flapDown, p.flapPeriod)
	ce := chaos.NewEngine(net.Clock(), net.Fabric())
	ce.OnFail = func(id topology.LinkID) {
		if l := topo.LinkByID(id); l != nil {
			net.NoteLinkDown(l)
		}
	}
	if err := ce.Apply(sched); err != nil {
		return nil, err
	}
	cfg := traffic.Config{
		Clock:         net.Clock(),
		Net:           net.Fabric().Net,
		Fabric:        net.Fabric(),
		Provider:      net.Paths,
		Links:         traffic.NewLinkModel(traffic.DefaultCapacity()),
		Seed:          seed,
		RevocationTTL: p.sourceTTL,
		MaxRetries:    flowsMaxRetries,
	}
	if tr != nil {
		cfg.Provider = tracedProvider(net.Paths, tr)
		cfg.Scheduler = func() traffic.Scheduler {
			return &tracedPolicy{inner: &traffic.WeightedBottleneck{}, tr: tr}
		}
	}
	eng, err := traffic.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		eng.Add(s)
	}
	return &flowsRun{net: net, eng: eng, chaos: ce, faults: nfault}, nil
}

// flapCandidates lists, once each, the links the pairs' paths traverse
// whose loss leaves every pair another path, most used first, and keeps
// the 2*faults most used. Flapping only these keeps every pair
// connected, so the storm exercises SCMP and failover, no flow fails for
// want of any path, and the flapped links carry traffic.
func flapCandidates(net *scion.Network, pairs [][2]addr.IA, faults int) ([]topology.LinkID, error) {
	var order []topology.LinkID
	seen := map[topology.LinkID]bool{}
	cut := map[topology.LinkID]bool{}
	uses := map[topology.LinkID]int{}
	for _, pr := range pairs {
		fps, err := net.Paths(pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		// onAll counts, per link, the pair's paths that use it.
		onAll := map[topology.LinkID]int{}
		for _, fp := range fps {
			refs, err := fp.LinkRefs(net.Topo)
			if err != nil {
				return nil, err
			}
			for _, ref := range refs {
				id := ref.Link.ID
				onAll[id]++
				uses[id]++
				if !seen[id] {
					seen[id] = true
					order = append(order, id)
				}
			}
		}
		for id, n := range onAll {
			if n == len(fps) {
				cut[id] = true
			}
		}
	}
	var out []topology.LinkID
	for _, id := range order {
		if !cut[id] {
			out = append(out, id)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return uses[out[i]] > uses[out[j]] })
	return out[:min(len(out), 2*faults)], nil
}

// tracedProvider wraps a path provider in "scion.paths" spans.
func tracedProvider(p traffic.PathProvider, tr *tracer) traffic.PathProvider {
	return func(src, dst addr.IA) ([]*dataplane.FwdPath, error) {
		id := tr.begin("scion.paths")
		fps, err := p(src, dst)
		tr.end(id)
		if err != nil || len(fps) == 0 {
			tr.count("scion.paths_empty", 1)
		}
		return fps, err
	}
}

// tracedPolicy wraps a path-selection policy in "strategy.pick" spans.
type tracedPolicy struct {
	inner strategy.Policy
	tr    *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Pick(paths []strategy.PathView) int {
	id := p.tr.begin("strategy.pick")
	i := p.inner.Pick(paths)
	p.tr.end(id)
	return i
}

func summaryDigest(s *traffic.Summary) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%v", *s)))
	return hex.EncodeToString(h[:8])
}

// flowsSets is how many flow sets a run draws from its seed and cycles
// through; the run's figures are means over the sets.
const flowsSets = 3

func runFlows(o opts, r *report) error {
	p := flowsSize(o)
	var setups []time.Duration
	var tracedPhases []*phase
	var untracedSecs, tracedSecs []float64
	var rates, secs, allocs [flowsSets][]float64
	digests := map[int]string{}
	t0 := processStart
	var timed time.Duration
	// Every set runs, and one twice, so the digest check always runs.
	minReps := flowsSets + 1
	if o.trace {
		minReps = 2
	}
	for rep := 0; rep < minReps || timed < time.Duration(o.seconds*float64(time.Second)); rep++ {
		// A traced run alternates untraced and traced repetitions of one
		// flow set, so the overhead compares the same work.
		set := rep % flowsSets
		traced := o.trace && rep%2 == 1
		if o.trace {
			set = rep / 2 % flowsSets
		}
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		run, err := flowsSetup(o.seed*flowsSets+int64(set), p, tr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))

		ph := startPhase(o.trace)
		var id int32
		if traced {
			id = tr.begin("traffic.run")
		}
		sum := run.eng.Run()
		if traced {
			tr.end(id)
		}
		ph.end()
		timed += ph.wall
		t0 = time.Now()

		r.ops(int64(sum.Flows), int64(sum.Failed+sum.Active))
		d := summaryDigest(sum)
		if digests[set] == "" {
			digests[set] = d
			r.expect("flows.completed", sum.Flows, sum.Completed)
			r.atLeast("flows.flap_injections", int64(run.faults), int64(run.chaos.Injections[chaos.Flap]))
			r.atLeast("flows.revocations", p.minRevocations, int64(sum.Revocations))
			r.atLeast("flows.reprobes", p.minReprobes, int64(run.eng.Reprobes))
			fmt.Printf("flows: %d ASes, %d flows, set %d, %d flap injections, %d revocations, %d re-probes, %d requeries, summary digest %s\n",
				run.net.Topo.NumASes(), sum.Flows, set, run.chaos.Injections[chaos.Flap], sum.Revocations, run.eng.Reprobes, run.eng.Requeries, d)
		} else {
			r.expect("flows.summary_digest_stable", digests[set], d)
		}
		if traced {
			tracedPhases = append(tracedPhases, ph)
			tracedSecs = append(tracedSecs, ph.wall.Seconds())
			flowsLayers(r, run, sum, tr)
			continue
		}
		untracedSecs = append(untracedSecs, ph.wall.Seconds())
		rates[set] = append(rates[set], float64(sum.Completed)/ph.wall.Seconds())
		secs[set] = append(secs[set], ph.wall.Seconds())
		allocs[set] = append(allocs[set], ph.allocMB*1e3/float64(sum.Flows))
		r.add("alloc_mb", "MB", ph.allocMB)
	}
	if o.trace {
		r.addGC(tracedPhases)
		r.overhead(untracedSecs, tracedSecs)
		return nil
	}
	r.addSetup(setups)
	r.add("ops_per_s", "1/s", meanOfMedians(rates[:]))
	r.add("op_p50_us", "us", meanOfMedians(secs[:])*1e6)
	r.add("alloc_kb_per_op", "KB", meanOfMedians(allocs[:]))
	return nil
}

// flowsLayers records one traced repetition's per-layer metrics.
func flowsLayers(r *report, run *flowsRun, sum *traffic.Summary, tr *tracer) {
	sp := summary(tr)
	paths, picks := sp["scion.paths"], sp["strategy.pick"]
	r.add("scion.bootstrap_s", "s", sp["scion.bootstrap"].seconds())
	r.add("scion.paths_calls", "count", float64(paths.count))
	r.add("scion.paths_s", "s", paths.seconds())
	r.add("scion.paths_p50_us", "us", paths.q(0.5, time.Microsecond))
	r.add("scion.paths_p99_us", "us", paths.q(0.99, time.Microsecond))
	r.add("scion.paths_empty_ratio", "ratio", float64(tr.counts["scion.paths_empty"])/float64(max(1, paths.count)))
	r.add("strategy.picks", "count", float64(picks.count))
	r.add("strategy.pick_s", "s", picks.seconds())
	r.add("strategy.pick_p50_ns", "ns", picks.q(0.5, time.Nanosecond))
	r.add("traffic.self_s", "s", sp["traffic.run"].self.Seconds())
	r.add("traffic.requeries", "count", float64(run.eng.Requeries))
	r.add("traffic.reprobes", "count", float64(run.eng.Reprobes))
	r.add("traffic.revocations", "count", float64(run.eng.Revocations))
	r.add("traffic.switches", "count", float64(sum.PathSwitches))
	r.add("dataplane.fabric_forwarded", "count", float64(run.net.Fabric().Forwarded))
	r.add("dataplane.fabric_revocations", "count", float64(run.net.Fabric().Revocations))
	r.add("sim.flows_events", "count", float64(run.net.Clock().Executed))
	r.add("chaos.injections", "count", float64(run.chaos.Injections[chaos.Flap]))
}
