package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/dataplane"
	"scionmpr/internal/slayers"
	"scionmpr/internal/topology"
	"scionmpr/scion"
)

// The forward and forward_mtu workloads drive the wire-format forwarding
// engine, built by NewEngine with only Workers set, over every path
// between many pairs of a generated ISD: one pre-encoded packet per
// path, at the smallest size (empty payload) on forward and at the path
// MTU on forward_mtu. About a tenth of the traffic leaves the fast path:
// tampered hop MACs, one failed transit link (SCMP back to the source)
// and one gray link that drops half of the packets crossing it.

const (
	// fwdTopoSeed fixes the ISD, like flowsTopoSeed: per-packet cost
	// follows path length, which differs between generated topologies.
	fwdTopoSeed = 1
	// fwdChunk is how many packets the closed loop injects per Flush.
	fwdChunk = 1024
	// fwdBurst is the open loop's burst size: large enough that
	// forwarding, not the generator's wake-up or the Flush that starts
	// and joins the workers, sets a burst's latency.
	fwdBurst = 256
	// fwdTamper is the share of packets with one corrupted hop MAC.
	fwdTamper = 0.05
	// fwdFaultShare is the share of trace packets the failed link and
	// the gray link should each carry.
	fwdFaultShare = 0.04
	fwdGrayRate   = 0.5
)

// fwdParams size the forward workload. A repetition forwards passes
// whole passes over each trace in the closed loop, then bursts bursts in
// the open loop: fixed work, so allocation per repetition is too.
type fwdParams struct{ ases, cores, pairs, passes, bursts int }

func fwdSize(o opts) fwdParams {
	if o.tiny {
		return fwdParams{ases: 60, cores: 3, pairs: 40, passes: 1, bursts: 20}
	}
	return fwdParams{ases: 300, cores: 5, pairs: 60, passes: 8, bursts: 80}
}

// outcome is what the fault plan predicts for one packet.
type outcome uint8

const (
	outDelivered outcome = iota
	outSCMP              // bad MAC past the source, or the failed link
	outDrop              // bad MAC at the source, or gray loss
)

// fwdTrace is one packet size's pre-encoded traffic.
type fwdTrace struct {
	frames   [][]byte
	mtus     []uint16
	paths    []*dataplane.FwdPath // the (possibly tampered) path of each frame
	want     []outcome
	payload  int64 // payload bytes over the whole trace
	firstID  uint32
	injected []int64 // injections per frame, counted by the harness
}

// fwdSetup is the forward workload's inputs and engine.
type fwdSetup struct {
	topo      *topology.Graph
	keys      dataplane.KeyFunc
	eng       *dataplane.Engine
	trace     *fwdTrace
	failed    topology.LinkID
	gray      topology.LinkID
	delivered []atomic.Int64 // per flow ID
	scmp      []atomic.Int64
	hops      float64 // mean hops per packet
	injected  int64   // packets injected so far
	digest    string
}

func setupForward(o opts, mtuSized bool) (*fwdSetup, error) {
	p := fwdSize(o)
	topo, err := scion.GenerateISDTopology(p.ases, 4, p.cores, fwdTopoSeed)
	if err != nil {
		return nil, err
	}
	net, err := scion.NewNetwork(topo, scion.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// The pairs are fixed with the topology; the seed orders the trace
	// and draws the tampered packets and the faulty links.
	pairRNG := rand.New(rand.NewSource(fwdTopoSeed))
	ias := topo.IAs()
	var paths []*dataplane.FwdPath
	seen := map[[2]addr.IA]bool{}
	for len(seen) < p.pairs {
		src, dst := ias[pairRNG.Intn(len(ias))], ias[pairRNG.Intn(len(ias))]
		if src == dst || seen[[2]addr.IA{src, dst}] {
			continue
		}
		seen[[2]addr.IA{src, dst}] = true
		fps, err := net.Paths(src, dst)
		if err != nil {
			continue // no path between the pair; it carries no traffic
		}
		paths = append(paths, fps...)
	}
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	s := &fwdSetup{topo: topo, keys: net.Infra.ForwardingKey}

	// Fault plan: the failed and gray links are transit links (egress of
	// a non-source hop) chosen by the seed among those carrying close to
	// fwdFaultShare of the packets.
	use := map[topology.LinkID]int{}
	for _, fp := range paths {
		for i := 1; i < len(fp.Hops)-1; i++ {
			if l := topo.LinkByIf(fp.Hops[i].Hop.IA, fp.Hops[i].Hop.Out); l != nil {
				use[l.ID]++
			}
		}
	}
	var cands []topology.LinkID
	for id, n := range use {
		share := float64(n) / float64(len(paths))
		if share > fwdFaultShare/2 && share < fwdFaultShare*2 {
			cands = append(cands, id)
		}
	}
	if len(cands) < 2 {
		return nil, fmt.Errorf("forward: %d transit links carry about %.0f%% of %d paths", len(cands), 100*fwdFaultShare, len(paths))
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	s.failed, s.gray = cands[0], cands[1]

	if s.trace, err = s.buildTrace(rng, paths, mtuSized, 1); err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, f := range s.trace.frames {
		h.Write(f)
	}
	fmt.Fprintf(h, "%d/%d", s.failed, s.gray)
	s.digest = hex.EncodeToString(h.Sum(nil))[:16]
	hops := 0
	for _, fp := range paths {
		hops += len(fp.Hops)
	}
	s.hops = float64(hops) / float64(len(paths))

	s.eng = dataplane.NewEngine(topo, s.keys)
	s.eng.Workers = runtime.NumCPU()
	n := len(paths) + 1
	s.delivered = make([]atomic.Int64, n)
	s.scmp = make([]atomic.Int64, n)
	for _, ia := range ias {
		s.eng.OnDeliver(ia, func(h *slayers.SCION) { s.delivered[h.FlowID].Add(1) })
		s.eng.OnSCMP(ia, func(m *dataplane.WireSCMPMsg) { s.scmp[m.FlowID].Add(1) })
	}
	s.eng.FailLink(s.failed)
	s.eng.SetLinkLoss(s.gray, fwdGrayRate)
	return s, nil
}

// buildTrace encodes one packet per path, tampering with fwdTamper of
// them, and predicts each packet's outcome from the fault plan.
func (s *fwdSetup) buildTrace(rng *rand.Rand, paths []*dataplane.FwdPath, mtuSized bool, firstID uint32) (*fwdTrace, error) {
	tr := &fwdTrace{firstID: firstID, injected: make([]int64, len(paths))}
	loss := dataplane.HashLoss(0) // the engine's default loss function
	var hdr slayers.SCION
	for i, fp := range paths {
		id := firstID + uint32(i)
		tampered := -1
		if rng.Float64() < fwdTamper {
			tampered = rng.Intn(len(fp.Hops))
			cp := &dataplane.FwdPath{Hops: append([]dataplane.HopField(nil), fp.Hops...), MTU: fp.MTU}
			cp.Hops[tampered].MAC[0] ^= 0x5a
			fp = cp
		}
		src, dst := fp.Hops[0].Hop.IA, fp.Hops[len(fp.Hops)-1].Hop.IA
		pkt := &dataplane.Packet{
			Src:    addr.HostIP4(src, 10, byte(id>>16), byte(id>>8), byte(id)),
			Dst:    addr.HostIP4(dst, 10, byte(id>>16), byte(id>>8), byte(id)),
			Path:   fp,
			FlowID: id,
		}
		if mtuSized {
			if fp.MTU == 0 {
				return nil, fmt.Errorf("forward: path without MTU")
			}
			pkt.Payload = make([]byte, int(fp.MTU)-pkt.WireLen())
		}
		buf := make([]byte, pkt.WireLen())
		if _, err := dataplane.EncodePacket(&hdr, pkt, buf); err != nil {
			return nil, err
		}
		tr.frames = append(tr.frames, buf)
		tr.mtus = append(tr.mtus, fp.MTU)
		tr.paths = append(tr.paths, fp)
		tr.payload += int64(len(pkt.Payload))

		want := outDelivered
		for h, hf := range fp.Hops {
			if h == tampered {
				want = outSCMP
				if h == 0 {
					want = outDrop
				}
				break
			}
			if h == len(fp.Hops)-1 {
				break
			}
			l := s.topo.LinkByIf(hf.Hop.IA, hf.Hop.Out)
			if l == nil {
				return nil, fmt.Errorf("forward: %s has no interface %d", hf.Hop.IA, hf.Hop.Out)
			}
			if l.ID == s.failed {
				want = outSCMP
				break
			}
			if l.ID == s.gray && loss(id, l.ID, fwdGrayRate) {
				want = outDrop
				break
			}
		}
		tr.want = append(tr.want, want)
	}
	return tr, nil
}

// closedLoop forwards passes passes over the trace, fwdChunk packets
// per Flush, and returns each pass's duration.
func (s *fwdSetup) closedLoop(tr *fwdTrace, passes int, t *tracer) ([]time.Duration, error) {
	var durs []time.Duration
	for p := 0; p < passes; p++ {
		start := time.Now()
		for i := 0; i < len(tr.frames); i += fwdChunk {
			end := min(i+fwdChunk, len(tr.frames))
			if err := s.inject(tr, i, end, t); err != nil {
				return nil, err
			}
			s.flush(t)
		}
		durs = append(durs, time.Since(start))
	}
	return durs, nil
}

func (s *fwdSetup) inject(tr *fwdTrace, from, to int, t *tracer) error {
	var err error
	t.span("dataplane.inject", func() {
		for i := from; i < to && err == nil; i++ {
			err = s.eng.InjectBytes(tr.frames[i], tr.mtus[i])
			tr.injected[i]++
			s.injected++
		}
	})
	if t != nil {
		t.count("dataplane.injected", to-from)
	}
	return err
}

func (s *fwdSetup) flush(t *tracer) { t.span("dataplane.flush", s.eng.Flush) }

// openLoop sends bursts of fwdBurst packets at the offered rate. Each
// burst's latency runs from when it was due to when its Flush returned;
// late is how far behind schedule the generator started the burst. The
// generator sleeps rather than spins, leaving the cores to the workers.
func (s *fwdSetup) openLoop(rate float64, bursts int, next *int, t *tracer) (lat, late []time.Duration, err error) {
	interval := time.Duration(float64(fwdBurst) / rate * float64(time.Second))
	start := time.Now()
	for k := 0; k < bursts; k++ {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		late = append(late, time.Since(due))
		from := *next
		to := min(from+fwdBurst, len(s.trace.frames))
		if err := s.inject(s.trace, from, to, t); err != nil {
			return nil, nil, err
		}
		*next = to % len(s.trace.frames)
		s.flush(t)
		lat = append(lat, time.Since(due))
	}
	return lat, late, nil
}

// verify compares every packet's outcomes with the fault plan and
// returns the number of mismatching packet injections.
func (s *fwdSetup) verify(r *report) int64 {
	var mismatched int64
	var want [3]int64
	for _, tr := range []*fwdTrace{s.trace} {
		for i := range tr.frames {
			n := tr.injected[i]
			id := tr.firstID + uint32(i)
			wd, ws := int64(0), int64(0)
			switch tr.want[i] {
			case outDelivered:
				wd = n
			case outSCMP:
				ws = n
			}
			want[tr.want[i]] += n
			gd, gs := s.delivered[id].Load(), s.scmp[id].Load()
			mismatched += max(gd-wd, wd-gd, gs-ws, ws-gs)
		}
	}
	st := s.eng.Stats()
	r.expect("forward.mismatched_packets", 0, mismatched)
	r.expect("forward.delivered", want[outDelivered], st.Delivered)
	r.expect("forward.scmp_and_drops", want[outSCMP]+want[outDrop],
		st.DroppedBadMAC+st.Revocations+st.DroppedGray)
	r.expect("forward.malformed", 0, st.DroppedMalformed)
	return mismatched
}

func runForward(o opts, r *report) error { return forward(o, r, false) }

func runForwardMTU(o opts, r *report) error { return forward(o, r, true) }

// forward runs one packet size's workload: in each repetition, passes
// over the trace in the closed loop, then bursts in the open loop.
func forward(o opts, r *report, mtuSized bool) error {
	var s *fwdSetup
	var setups []time.Duration
	t0 := processStart
	for i := 0; i < 3; i++ {
		next, err := setupForward(o, mtuSized)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0))
		t0 = time.Now()
		if s != nil {
			r.expect("forward.inputs_deterministic", s.digest, next.digest)
		}
		s = next
	}
	fmt.Printf("%s: %d paths, %.2f hops/path, workers %d, failed link %d, gray link %d, inputs %s\n",
		o.workload, len(s.trace.frames), s.hops, s.eng.Workers, s.failed, s.gray, s.digest)

	p := fwdSize(o)
	total := time.Duration(o.seconds * float64(time.Second))
	var timed time.Duration
	var tracedPhases []*phase
	var pps, tracedPPS, gbps []float64
	var lat, late []time.Duration
	var spans []*tracer
	next := 0
	for k := 0; k < 2 || timed < total; k++ {
		var t *tracer
		if o.trace && k%2 == 1 {
			t = newTracer()
			spans = append(spans, t)
		}
		ph := startPhase(o.trace)
		injected0 := s.injected
		durs, err := s.closedLoop(s.trace, p.passes, t)
		if err != nil {
			return err
		}
		// One throughput sample per pass: the median over many short
		// passes resists the bursts of CPU a shared host takes away.
		var rates []float64
		for _, d := range durs {
			rates = append(rates, float64(len(s.trace.frames))/d.Seconds())
			gbps = append(gbps, float64(s.trace.payload)*8/d.Seconds()/1e9)
		}
		l, lt, err := s.openLoop(o.fwdRate, p.bursts, &next, t)
		if err != nil {
			return err
		}
		ph.end()
		timed += ph.wall
		late = append(late, lt...)
		if t != nil {
			tracedPhases = append(tracedPhases, ph)
			tracedPPS = append(tracedPPS, rates...)
			continue
		}
		pps = append(pps, rates...)
		r.add("alloc_kb_per_op", "KB", ph.allocMB*1e3/float64(s.injected-injected0))
		r.add("alloc_mb", "MB", ph.allocMB)
		lat = append(lat, l...)
	}
	r.ops(s.injected, s.verify(r))
	if o.trace {
		fwdLayers(r, s, spans, late)
		// The burst p99 is a per-layer metric: it is set by the few bursts
		// a GC cycle or a descheduled worker overlaps, and moved by half
		// between runs of one seed.
		r.add("forward.burst_p99_us", "us", durQuantile(lat, 0.99, time.Microsecond))
		r.addGC(tracedPhases)
		// Throughput falls as time rises: the overhead compares the time
		// per packet, 1/pps.
		inv := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = 1 / x
			}
			return out
		}
		r.overhead(inv(pps), inv(tracedPPS))
		return nil
	}
	r.addSetup(setups)
	r.add("ops_per_s", "1/s", pps...)
	r.add("op_p50_us", "us", durQuantile(lat, 0.5, time.Microsecond))
	r.add("fwd_burst_p99_us", "us", durQuantile(lat, 0.99, time.Microsecond))
	if mtuSized {
		r.add("fwd_mtu_gbps", "Gbit/s", gbps...)
	}
	return nil
}

// fwdLayers records the forward workload's per-layer metrics: the
// traced loops' spans, engine counters, the generator's lateness, and
// timed passes of the decoder and the hop-field MAC check over the trace.
func fwdLayers(r *report, s *fwdSetup, spans []*tracer, late []time.Duration) {
	sp := summary(spans...)
	injected := 0
	for _, t := range spans {
		injected += t.counts["dataplane.injected"]
	}
	r.add("dataplane.inject_ns", "ns", float64(sp["dataplane.inject"].total.Nanoseconds())/float64(max(1, injected)))
	r.add("dataplane.flush_p50_us", "us", sp["dataplane.flush"].q(0.5, time.Microsecond))
	r.add("dataplane.flush_p99_us", "us", sp["dataplane.flush"].q(0.99, time.Microsecond))
	r.add("forward.gen_late_p99_us", "us", durQuantile(late, 0.99, time.Microsecond))

	t := newTracer()
	var hdr slayers.SCION
	var decodeErrs int
	id := t.begin("slayers.decode")
	for _, f := range s.trace.frames {
		if hdr.DecodeFromBytes(f) != nil {
			decodeErrs++
		}
	}
	t.end(id)
	r.expect("forward.decode_errors", 0, decodeErrs)
	hops := 0
	id = t.begin("dataplane.verify")
	for _, fp := range s.trace.paths {
		for h := range fp.Hops {
			_ = fp.Verify(h, s.keys) // tampered hops fail here as in the engine
			hops++
		}
	}
	t.end(id)
	ts := summary(t)
	r.add("slayers.decode_ns", "ns", float64(ts["slayers.decode"].total.Nanoseconds())/float64(len(s.trace.frames)))
	r.add("dataplane.verify_ns", "ns", float64(ts["dataplane.verify"].total.Nanoseconds())/float64(hops))

	st := s.eng.Stats()
	var scmp int64
	for i := range s.scmp {
		scmp += s.scmp[i].Load()
	}
	pkts := float64(st.Delivered + st.DroppedBadMAC + st.Revocations + st.DroppedGray)
	r.add("dataplane.batch_fill", "pkt/batch", float64(st.BatchPackets)/float64(max(1, st.Batches)))
	r.add("dataplane.hops_per_pkt", "hops", s.hops)
	r.add("dataplane.delivered_ratio", "ratio", float64(st.Delivered)/pkts)
	r.add("dataplane.scmp_ratio", "ratio", float64(scmp)/pkts)
	r.add("dataplane.bad_mac", "count", float64(st.DroppedBadMAC))
	r.add("dataplane.gray_drops", "count", float64(st.DroppedGray))
	r.add("dataplane.malformed", "count", float64(st.DroppedMalformed))
}
