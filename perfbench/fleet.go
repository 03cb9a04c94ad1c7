package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/chaos"
	"scionmpr/internal/core"
	"scionmpr/internal/pathdb"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

// The fleet workload serves path lookups from a replicated path-server
// fleet while one writer applies, in wall-clock time, the mutation
// schedule of the program's own serving experiments: a registration
// sweep that re-registers every segment each second, and a flap storm
// over a quarter of the core links that revokes a link's interfaces
// when it fails and reinstates them when it heals, each followed by a
// publish and journalled in every replica's WAL. A rolling crash storm
// crashes each follower once per crash period and restarts it from its
// WAL at once. Readers look up Zipf-drawn pairs through local caches on
// replica 0, which never crashes.
//
// Every setting below is taken from the program: the topology has
// experiments.SmokeScale's size, the beaconing its store and
// dissemination limits, the service, cache and WAL settings are
// cmd/pathserve's defaults (-shards, -zipf, -cachettl, -ckptevery,
// -crashperiod), the cache capacity and revocation TTL are
// experiments.DefaultServeConfig's, and the sweep interval and flap
// storm (down time, period, a quarter of the core links) are those of
// experiments.RunServe. Those run in virtual time; here every duration
// is stretched by the dilation, so that one writer keeps up on two
// cores: one sweep re-registers ~14k segments on three replicas, which
// takes about three seconds.

const (
	fleetTopoSeed        = 1
	fleetShards          = 16
	fleetZipf            = 1.2
	fleetCacheTTL        = 2 * time.Second
	fleetCacheCap        = 4096
	fleetCheckpointEvery = 192
	fleetRevTTL          = 1500 * time.Millisecond
	fleetRegisterEvery   = time.Second
	fleetFlapDown        = time.Second
	fleetFlapPeriod      = 3 * time.Second
	fleetCrashPeriod     = 2700 * time.Millisecond
	// fleetSampleEvery keeps one lookup latency in this many; only the
	// sampled lookups read the clock.
	fleetSampleEvery = 8
	// fleetSeqLen is the length of the key sequence a reader draws
	// before each window and cycles through during it.
	fleetSeqLen = 1 << 14
)

// fleetParams size the fleet workload; dilation stretches its schedule
// and TTLs.
type fleetParams struct {
	ases, core int
	dilation   float64
}

func fleetSize(o opts) fleetParams {
	if o.tiny {
		return fleetParams{ases: 50, core: 8, dilation: 0.02}
	}
	return fleetParams{ases: 120, core: 16, dilation: 10}
}

// dilate stretches one of the program's durations.
func (p fleetParams) dilate(d time.Duration) time.Duration {
	return time.Duration(float64(d) * p.dilation)
}

// mutation is one step of the writer's schedule, due at offset from the
// start of the timed phase.
type mutation struct {
	at   time.Duration
	kind byte             // 'g' registration sweep, 'r' revoke, 'i' reinstate, 'c' crash and restart
	link [2]seg.LinkKey   // both directed interfaces of the flapped link
	rep  *pathsrv.Replica // the follower to crash
}

type fleetSetup struct {
	fleetParams
	fleet    *pathsrv.Fleet
	base     sim.Time // virtual time at the start of the timed phase
	segs     []*seg.PCB
	keys     []pairIA
	schedule []mutation
	flapped  int
	digest   [32]byte
}

type pairIA struct{ src, dst addr.IA }

func setupFleet(o opts) (*fleetSetup, error) {
	p := fleetSize(o)
	gp := topology.DefaultGenParams()
	gp.NumASes = p.ases
	gp.Seed = fleetTopoSeed
	full, err := topology.Generate(gp)
	if err != nil {
		return nil, err
	}
	coreTopo, err := topology.ExtractCore(full, p.core)
	if err != nil {
		return nil, err
	}
	cfg := beacon.DefaultRunConfig(coreTopo, beacon.CoreMode, core.NewDiversity(core.DefaultParams(5)), 60)
	cfg.Duration = time.Hour
	run, err := beacon.Run(cfg)
	if err != nil {
		return nil, err
	}
	s := &fleetSetup{fleetParams: p, base: run.End}
	for _, ia := range coreTopo.IAs() {
		st := run.Servers[ia].Store()
		for _, origin := range st.Origins() {
			for _, pcb := range st.PCBs(run.End, origin) {
				if pcb.Leaf() != origin {
					s.segs = append(s.segs, pcb)
				}
			}
		}
	}

	// The schedule, over the timed phase and some slack. The flap storm
	// is drawn from the seed, as RunServe draws it from its own.
	// Sweeps fall midway between the interval's ticks, so none is due
	// as the timed phase ends and every run applies the same number.
	horizon := sim.Time(time.Duration(o.seconds*float64(time.Second)) + 2*p.dilate(fleetFlapPeriod))
	every := p.dilate(fleetRegisterEvery)
	for t := every / 2; sim.Time(t) < horizon; t += every {
		s.schedule = append(s.schedule, mutation{at: t, kind: 'g'})
	}
	var links []topology.LinkID
	for _, l := range coreTopo.Links {
		links = append(links, l.ID)
	}
	s.flapped = max(2, len(links)/4)
	flapping := map[seg.LinkKey]bool{}
	for _, ev := range chaos.FlapChurn(o.seed, links, s.flapped, 0, horizon, p.dilate(fleetFlapDown), p.dilate(fleetFlapPeriod)).Events {
		l := coreTopo.LinkByID(ev.Link)
		keys := [2]seg.LinkKey{{IA: l.A, If: l.AIf}, {IA: l.B, If: l.BIf}}
		flapping[keys[0]], flapping[keys[1]] = true, true
		for t := ev.At; t <= ev.Until; t += sim.Time(ev.Period) {
			s.schedule = append(s.schedule,
				mutation{at: time.Duration(t), kind: 'r', link: keys},
				mutation{at: time.Duration(t) + ev.Down, kind: 'i', link: keys})
		}
	}
	s.fleet = pathsrv.NewFleet(pathsrv.FleetConfig{
		Replicas:        3,
		Service:         pathsrv.Config{Shards: fleetShards, RevocationTTL: sim.Time(p.dilate(fleetRevTTL))},
		CheckpointEvery: fleetCheckpointEvery,
	})
	var followers []addr.IA
	byIA := map[addr.IA]*pathsrv.Replica{}
	for _, r := range s.fleet.Replicas()[1:] {
		followers = append(followers, r.IA)
		byIA[r.IA] = r
	}
	for _, ev := range chaos.CrashStorm(o.seed, followers, 0, horizon, time.Nanosecond, p.dilate(fleetCrashPeriod)).Events {
		for t := ev.At; t <= ev.Until; t += sim.Time(ev.Period) {
			s.schedule = append(s.schedule, mutation{at: time.Duration(t), kind: 'c', rep: byIA[ev.IA]})
		}
	}
	sort.SliceStable(s.schedule, func(i, j int) bool { return s.schedule[i].at < s.schedule[j].at })

	// The readers query only pairs with a segment that avoids every
	// flapping link, so every lookup has an answer and an empty one is a
	// failure.
	eligible := map[pairIA]bool{}
	for _, pcb := range s.segs {
		k := pairIA{pcb.Origin(), pcb.Leaf()}
		avoids := true
		for _, lk := range pcb.Links() {
			if flapping[lk] {
				avoids = false
			}
		}
		if avoids && !eligible[k] {
			eligible[k] = true
			s.keys = append(s.keys, k)
		}
	}
	if len(s.keys) == 0 {
		return nil, fmt.Errorf("fleet: no pair avoids the flapping links")
	}
	for _, pcb := range s.segs {
		s.fleet.Register(s.base, pcb)
	}
	s.fleet.Publish(s.base)
	s.digest = s.fleet.Replica(0).Service().Digest()
	return s, nil
}

// writerStats are the writer's results.
type writerStats struct {
	lat        []time.Duration // due to publish returned
	restarts   []time.Duration
	walMB      []float64
	walRecords []float64
	replayed   []float64
	mismatches int64
	recoveries int64
	changed    int64 // pairs whose reply changed, on replica 0
}

// write applies the schedule until stop is closed.
func (s *fleetSetup) write(start time.Time, stop <-chan struct{}, t *tracer, ws *writerStats) error {
	reps := s.fleet.Replicas()
	// A restart and its digest check postpone the rest of the schedule
	// by their duration, so publish latency measures publishing alone.
	var paused time.Duration
	for _, m := range s.schedule {
		select {
		case <-stop:
			return nil
		default:
		}
		due := start.Add(m.at + paused)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := s.base + sim.Time(time.Since(start))

		if m.kind == 'c' {
			f := m.rep
			ws.walMB = append(ws.walMB, float64(f.WAL().Len())/1e6)
			ws.walRecords = append(ws.walRecords, float64(f.WAL().Records))
			s.fleet.Crash(f.IA)
			t0 := time.Now()
			t.span("pathsrv.restart", func() { s.fleet.Restart(f.IA) })
			ws.restarts = append(ws.restarts, time.Since(t0))
			ws.replayed = append(ws.replayed, float64(f.LastReplayed))
			ws.recoveries++
			if f.Service().Digest() != reps[0].Service().Digest() {
				ws.mismatches++
			}
			paused += time.Since(t0)
			continue
		}

		var changed int
		switch m.kind {
		case 'g':
			var err error
			t.span("pathsrv.register", func() {
				for _, pcb := range s.segs {
					for _, r := range reps {
						if e := r.Register(now, pcb); e != nil && r.ID == 0 {
							err = e
						}
					}
				}
			})
			if err != nil {
				return err
			}
		case 'r':
			t.span("pathsrv.revoke", func() {
				for _, lk := range m.link {
					for _, r := range reps {
						if n := r.RevokeLink(now, lk, sim.Time(s.dilate(fleetRevTTL))); r.ID == 0 {
							changed += n
						}
					}
				}
			})
		case 'i':
			t.span("pathsrv.reinstate", func() {
				for _, lk := range m.link {
					for _, r := range reps {
						if n := r.ReinstateLink(now, lk); r.ID == 0 {
							changed += n
						}
					}
				}
			})
		}
		t.span("pathsrv.publish", func() {
			for _, r := range reps {
				if n := r.Publish(now); r.ID == 0 {
					changed += n
				}
			}
		})
		ws.changed += int64(changed)
		ws.lat = append(ws.lat, time.Since(due))
	}
	return fmt.Errorf("fleet: schedule of %d mutations exhausted before the timed phase ended", len(s.schedule))
}

// readerStats are one reader's results.
type readerStats struct {
	ops, empties int64
	windows      []float64 // lookups per second, per window of the timed phase
	samples      []time.Duration
	hits, misses uint64
}

// read looks up Zipf-drawn pairs through a local cache until stop.
// Before each window it draws the window's key sequence, with which
// pairs are popular drawn afresh, so the median window does not hinge on
// the few pairs one draw makes popular. Inside a window the loop is the
// lookup and little else: only every fleetSampleEvery-th lookup reads
// the clock, and the lookups between pass the cache the last time read
// (the cache TTL is far longer than the gap).
func (s *fleetSetup) read(g int, seed int64, start time.Time, every time.Duration, stop *atomic.Bool, rs *readerStats) {
	svc := s.fleet.Replica(0).Service()
	cache := pathsrv.NewLocalCache(sim.Time(s.dilate(fleetCacheTTL)), fleetCacheCap)
	rng := rand.New(rand.NewSource(seed + int64(g)*7919))
	ranks := pathdb.NewZipfRanks(len(s.keys), fleetZipf, rng.Int63())
	seq := make([]pairIA, fleetSeqLen)
	for !stop.Load() {
		popular := rng.Perm(len(s.keys))
		for i := range seq {
			seq[i] = s.keys[popular[ranks.Next()]]
		}
		wStart := time.Now()
		now := s.base + sim.Time(wStart.Sub(start))
		var n int64
		for {
			k := seq[n%fleetSeqLen]
			var segs []*seg.PCB
			if n%fleetSampleEvery == 0 {
				t0 := time.Now()
				now = s.base + sim.Time(t0.Sub(start))
				segs, _ = cache.Lookup(now, svc, k.src, k.dst)
				rs.samples = append(rs.samples, time.Since(t0))
				if t0.Sub(wStart) >= every || stop.Load() {
					if !stop.Load() {
						rs.windows = append(rs.windows, float64(n)/t0.Sub(wStart).Seconds())
					}
					if len(segs) == 0 {
						rs.empties++
					}
					rs.ops++
					break
				}
			} else {
				segs, _ = cache.Lookup(now, svc, k.src, k.dst)
			}
			if len(segs) == 0 {
				rs.empties++
			}
			n++
		}
		rs.ops += n
	}
	rs.hits, rs.misses = cache.Hits, cache.Misses
}

func runFleet(o opts, r *report) error {
	var s *fleetSetup
	var setups []time.Duration
	t0 := processStart
	for i := 0; i < 3; i++ {
		next, err := setupFleet(o)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		t0 = time.Now()
		if s != nil {
			r.expect("fleet.fill_deterministic", fmt.Sprintf("%x", s.digest[:8]), fmt.Sprintf("%x", next.digest[:8]))
		}
		s = next
	}
	svc := s.fleet.Replica(0).Service()
	readers := max(1, runtime.NumCPU()-1)
	fmt.Printf("fleet: %d replicas, %d segments, %d reader pairs, %d of the core links flapping, %d readers\n",
		s.fleet.Size(), len(s.segs), len(s.keys), s.flapped, readers)
	pub0, shards0 := svc.Publishes, svc.PublishedShards
	ckpt0 := s.fleet.Replica(0).WAL().Checkpoints

	var t *tracer
	if o.trace {
		t = newTracer()
	}
	window := time.Duration(min(1, o.seconds/4) * float64(time.Second))
	rstats := make([]readerStats, readers)
	var ws writerStats
	var stop atomic.Bool
	stopW := make(chan struct{})
	var wg sync.WaitGroup
	var werr error
	ph := startPhase(o.trace)
	start := time.Now()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s.read(g, o.seed, start, window, &stop, &rstats[g])
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = s.write(start, stopW, t, &ws)
	}()
	time.Sleep(time.Duration(o.seconds * float64(time.Second)))
	stop.Store(true)
	close(stopW)
	wg.Wait()
	ph.end()
	if werr != nil {
		return werr
	}

	var ops, empties int64
	var windows []float64
	var samples []time.Duration
	var hits, misses uint64
	for _, rs := range rstats {
		ops += rs.ops
		empties += rs.empties
		for _, w := range rs.windows {
			windows = append(windows, w*float64(readers))
		}
		samples = append(samples, rs.samples...)
		hits += rs.hits
		misses += rs.misses
	}
	mutations := int64(len(ws.lat))
	r.ops(ops+mutations+ws.recoveries, empties+ws.mismatches)
	r.expect("fleet.empty_lookups", 0, empties)
	r.expect("fleet.recovered_digest_mismatches", 0, ws.mismatches)
	r.atLeast("fleet.recoveries", 1, ws.recoveries)
	if len(windows) == 0 {
		return fmt.Errorf("fleet: timed phase shorter than one lookup window")
	}

	if o.trace {
		sp := summary(t)
		publishes := svc.Publishes - pub0
		r.add("pathsrv.register_us", "us", sp["pathsrv.register"].q(0.5, time.Microsecond)/float64(len(s.segs)))
		r.add("pathsrv.revoke_us", "us", sp["pathsrv.revoke"].q(0.5, time.Microsecond))
		r.add("pathsrv.publish_us", "us", sp["pathsrv.publish"].q(0.5, time.Microsecond))
		r.add("pathsrv.published_shards_per_publish", "shards", float64(svc.PublishedShards-shards0)/float64(max(1, publishes)))
		r.add("pathsrv.invalidations_per_publish", "pairs", float64(ws.changed)/float64(max(1, publishes)))
		r.add("pathsrv.cache_hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
		r.add("pathsrv.wal_mb", "MB", ws.walMB...)
		r.add("pathsrv.wal_records", "count", ws.walRecords...)
		r.add("pathsrv.checkpoints", "count", float64(s.fleet.Replica(0).WAL().Checkpoints-ckpt0))
		r.add("pathsrv.replayed_records", "count", ws.replayed...)
		r.add("pathsrv.restart_ms", "ms", sp["pathsrv.restart"].q(0.5, time.Millisecond))
		r.addGC([]*phase{ph})
		// The mutations differ too much from one another (which link a
		// revocation hits, which sweep) for traced and untraced ones to
		// isolate the tracing: the overhead is the measured cost of the
		// spans recorded, over the mutations' time.
		var busy time.Duration
		for _, d := range ws.lat {
			busy += d
		}
		r.add("trace.overhead_pct", "%", 100*float64(spanCost()*time.Duration(len(t.spans)))/float64(busy))
		return nil
	}
	r.addSetup(setups)
	r.add("ops_per_s", "1/s", windows...)
	r.add("op_p50_us", "us", durQuantile(samples, 0.5, time.Nanosecond)/1e3)
	r.add("alloc_kb_per_op", "KB", ph.allocMB*1e3/float64(mutations))
	r.add("alloc_mb", "MB", ph.allocMB)
	r.add("lookup_p99_ns", "ns", durQuantile(samples, 0.99, time.Nanosecond))
	r.add("publish_p99_ms", "ms", durQuantile(ws.lat, 0.99, time.Millisecond))
	for _, d := range ws.restarts {
		r.add("recover_ms", "ms", float64(d)/float64(time.Millisecond))
	}
	return nil
}
