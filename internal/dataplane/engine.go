// The wire-format forwarding engine: the same border-router semantics
// as the in-memory Fabric, but operating on real packet bytes in the
// internal/slayers encoding, with pooled buffers, per-AS ingress rings
// drained in fixed-size batches, batched hop-field MAC verification,
// and lock-free egress hand-off between router workers. The Fabric
// stays as the semantic reference; the differential harness in
// diff_test.go replays identical traffic through both and asserts
// byte-identical run fingerprints.
package dataplane

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/combinator"
	"scionmpr/internal/seg"
	"scionmpr/internal/slayers"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// WireDeliverFunc receives packets arriving at their destination AS.
// The header and payload alias an engine-owned buffer that is recycled
// when the handler returns: copy anything retained.
type WireDeliverFunc func(s *slayers.SCION)

// WireSCMPMsg is a decoded SCMP message handed to the original
// sender's AS.
type WireSCMPMsg struct {
	Type     SCMPType
	Link     seg.LinkKey // revoked link for SCMPRevokedLink
	Offender addr.IA
	// FlowID, SrcIA, DstIA identify the offending packet (parsed from
	// the quoted original header).
	FlowID       uint32
	SrcIA, DstIA addr.IA
}

// WireSCMPFunc receives SCMP messages arriving back at the sender AS.
// The message is worker scratch, reused when the handler returns: copy
// anything retained.
type WireSCMPFunc func(m *WireSCMPMsg)

// wireSCMPType maps the dataplane SCMP enum onto the wire code.
func wireSCMPType(t SCMPType) uint8 { return uint8(t) + 1 }

// scmpTypeFromWire is the inverse of wireSCMPType.
func scmpTypeFromWire(b uint8) SCMPType { return SCMPType(int(b) - 1) }

// ifEntry is one egress-table slot: the attached link and the dense
// index of the AS on the other side.
type ifEntry struct {
	link *topology.Link
	dst  int32
}

// EngineStats is a snapshot of the engine's forwarding counters. The
// first seven mirror the Fabric's counters one for one (the
// differential harness compares them); DroppedMalformed counts frames
// the byte decoder rejected (impossible for self-generated traffic,
// checked to be zero by the harness); Batches/BatchPackets expose
// batching efficiency.
type EngineStats struct {
	Forwarded, Delivered, DroppedBadMAC, DroppedNoRoute, DroppedTooBig uint64
	Revocations, DroppedGray                                           uint64
	DroppedMalformed                                                   uint64
	Batches, BatchPackets                                              uint64
}

// Engine is the batched wire-format forwarding plane. One logical
// border router per AS, each with a lock-free multi-producer ingress
// ring; workers own disjoint AS subsets and drain their rings in
// batches, so a frame's whole lifetime — decode, MAC check, egress
// lookup, hand-off to the next ring — happens on packet bytes without
// allocating. Configure the exported knobs before the first Inject.
type Engine struct {
	Topo *topology.Graph
	Keys KeyFunc

	// Workers is the number of router goroutines a Flush runs (default
	// 1; single-worker flushes run inline on the caller's goroutine so
	// benchmarks measure per-core throughput cleanly).
	Workers int
	// BatchSize is how many frames a worker drains from one ring per
	// batch. Zero (or negative) means the default of 32, verified with
	// the router's own keyed HMAC state and verdict cache. Exactly 1
	// selects per-packet mode: each MAC is verified with a fresh HMAC
	// key schedule and no cache — the naive baseline batch mode is
	// measured against.
	BatchSize int
	// DisableMAC skips hop-field verification (for measuring the MAC
	// share of forwarding cost; never set in differential runs).
	DisableMAC bool
	// Seed keys the default hash-based gray-loss decision (see
	// HashLoss). Ignored when LossFunc is set.
	Seed uint64
	// LossFunc decides gray-failure drops. The engine is concurrent, so
	// only pure per-packet decisions are meaningful; nil defaults to
	// HashLoss(Seed).
	LossFunc func(flow uint32, link topology.LinkID, rate float64) bool

	ias []addr.IA
	idx map[addr.IA]int32
	// ifTable[a][ifID] is AS a's interface table (egress lookup and
	// SCMP walk-back), dense per AS.
	ifTable [][]ifEntry
	keys    [][]byte
	rings   []*ring
	deliver []WireDeliverFunc
	scmp    []WireSCMPFunc
	// verifiers[a] is owned by whichever worker owns AS a for the
	// duration of a Flush (ownership is a pure function of the AS index
	// and the worker count, so it never migrates mid-flush).
	verifiers []macVerifier
	// workers[i] is worker i's scratch, kept across flushes so a warmed
	// engine forwards without allocating.
	workers []*workerCtx

	// Test hooks splitting batch mode's gain into its factors:
	// keyedSingle makes per-packet mode verify with the router's keyed
	// state (no verdict cache) instead of a fresh key schedule, and
	// noVerdictCache makes batch mode skip the verdict cache.
	keyedSingle, noVerdictCache bool

	// Fault state, indexed by LinkID (dense: IDs are sequential from 1).
	failed  []atomic.Bool
	loss    []atomic.Uint64 // math.Float64bits of the drop rate
	delayNs []atomic.Int64  // recorded only: the engine models throughput, not latency

	pool     *framePool
	inflight atomic.Int64

	forwarded, delivered, droppedBadMAC, droppedNoRoute, droppedTooBig atomic.Uint64
	revocations, droppedGray, droppedMalformed                         atomic.Uint64
	batches, batchPackets                                              atomic.Uint64
}

const (
	defaultBatchSize = 32
	defaultRingCap   = 1024
)

// NewEngine builds an engine over the topology. Keys resolves each
// AS's forwarding key once up front; ASes with no key fail every MAC
// check (as in the Fabric).
func NewEngine(topo *topology.Graph, keys KeyFunc) *Engine {
	ias := topo.IAs()
	e := &Engine{
		Topo:      topo,
		Keys:      keys,
		ias:       ias,
		idx:       make(map[addr.IA]int32, len(ias)),
		ifTable:   make([][]ifEntry, len(ias)),
		keys:      make([][]byte, len(ias)),
		rings:     make([]*ring, len(ias)),
		deliver:   make([]WireDeliverFunc, len(ias)),
		scmp:      make([]WireSCMPFunc, len(ias)),
		verifiers: make([]macVerifier, len(ias)),
		pool:      newFramePool(),
	}
	for i, ia := range ias {
		e.idx[ia] = int32(i)
		e.keys[i] = keys(ia)
		e.rings[i] = newRing(defaultRingCap)
	}
	maxID := topology.LinkID(0)
	for _, l := range topo.Links {
		if l.ID > maxID {
			maxID = l.ID
		}
	}
	e.failed = make([]atomic.Bool, int(maxID)+1)
	e.loss = make([]atomic.Uint64, int(maxID)+1)
	e.delayNs = make([]atomic.Int64, int(maxID)+1)
	for _, l := range topo.Links {
		a, b := e.idx[l.A], e.idx[l.B]
		e.setIf(a, l.AIf, ifEntry{link: l, dst: b})
		e.setIf(b, l.BIf, ifEntry{link: l, dst: a})
	}
	return e
}

func (e *Engine) setIf(a int32, ifID addr.IfID, ent ifEntry) {
	t := e.ifTable[a]
	for int(ifID) >= len(t) {
		t = append(t, ifEntry{})
	}
	t[ifID] = ent
	e.ifTable[a] = t
}

// lookupIf returns AS a's interface entry for ifID (zero entry if the
// interface does not exist).
func (e *Engine) lookupIf(a int32, ifID addr.IfID) ifEntry {
	if t := e.ifTable[a]; int(ifID) < len(t) {
		return t[ifID]
	}
	return ifEntry{}
}

// OnDeliver installs the destination handler of an AS.
func (e *Engine) OnDeliver(ia addr.IA, fn WireDeliverFunc) {
	if i, ok := e.idx[ia]; ok {
		e.deliver[i] = fn
	}
}

// OnSCMP installs the SCMP handler of an AS.
func (e *Engine) OnSCMP(ia addr.IA, fn WireSCMPFunc) {
	if i, ok := e.idx[ia]; ok {
		e.scmp[i] = fn
	}
}

// FailLink marks a link as failed (chaos.FaultTarget).
func (e *Engine) FailLink(id topology.LinkID) {
	if int(id) < len(e.failed) {
		e.failed[id].Store(true)
	}
}

// RestoreLink clears a failure (chaos.FaultTarget).
func (e *Engine) RestoreLink(id topology.LinkID) {
	if int(id) < len(e.failed) {
		e.failed[id].Store(false)
	}
}

// Failed reports whether a link is failed.
func (e *Engine) Failed(id topology.LinkID) bool {
	return int(id) < len(e.failed) && e.failed[id].Load()
}

// SetLinkLoss sets the gray-failure drop probability of a link
// (chaos.FaultTarget).
func (e *Engine) SetLinkLoss(id topology.LinkID, rate float64) {
	if int(id) >= len(e.loss) {
		return
	}
	if rate <= 0 {
		e.loss[id].Store(0)
		return
	}
	if rate > 1 {
		rate = 1
	}
	e.loss[id].Store(math.Float64bits(rate))
}

// LinkLoss returns the gray-failure drop probability of a link.
func (e *Engine) LinkLoss(id topology.LinkID) float64 {
	if int(id) >= len(e.loss) {
		return 0
	}
	return math.Float64frombits(e.loss[id].Load())
}

// SetLinkDelay records a latency override (chaos.FaultTarget). The
// engine models forwarding throughput, not propagation latency, so the
// value is observable via LinkDelay but has no behavioral effect.
func (e *Engine) SetLinkDelay(id topology.LinkID, d time.Duration) {
	if int(id) < len(e.delayNs) {
		e.delayNs[id].Store(int64(d))
	}
}

// LinkDelay returns the recorded latency override of a link.
func (e *Engine) LinkDelay(id topology.LinkID) time.Duration {
	if int(id) >= len(e.delayNs) {
		return 0
	}
	return time.Duration(e.delayNs[id].Load())
}

// Stats snapshots the forwarding counters. Call between flushes for
// exact values (workers update them with atomics during a Flush).
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Forwarded:        e.forwarded.Load(),
		Delivered:        e.delivered.Load(),
		DroppedBadMAC:    e.droppedBadMAC.Load(),
		DroppedNoRoute:   e.droppedNoRoute.Load(),
		DroppedTooBig:    e.droppedTooBig.Load(),
		Revocations:      e.revocations.Load(),
		DroppedGray:      e.droppedGray.Load(),
		DroppedMalformed: e.droppedMalformed.Load(),
		Batches:          e.batches.Load(),
		BatchPackets:     e.batchPackets.Load(),
	}
}

// ResetCounters zeroes all forwarding statistics.
func (e *Engine) ResetCounters() {
	for _, c := range []*atomic.Uint64{
		&e.forwarded, &e.delivered, &e.droppedBadMAC, &e.droppedNoRoute,
		&e.droppedTooBig, &e.revocations, &e.droppedGray,
		&e.droppedMalformed, &e.batches, &e.batchPackets,
	} {
		c.Store(0)
	}
}

// SetTelemetry registers the engine's counters as gauge funcs, under
// engine_-prefixed names so a fabric and an engine can share one
// registry in differential runs.
func (e *Engine) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	u := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.GaugeFunc("engine_forwarded_total", u(&e.forwarded))
	reg.GaugeFunc("engine_delivered_total", u(&e.delivered))
	reg.GaugeFunc("engine_revocations_total", u(&e.revocations))
	reg.GaugeFunc(`engine_dropped_total{cause="bad_mac"}`, u(&e.droppedBadMAC))
	reg.GaugeFunc(`engine_dropped_total{cause="no_route"}`, u(&e.droppedNoRoute))
	reg.GaugeFunc(`engine_dropped_total{cause="too_big"}`, u(&e.droppedTooBig))
	reg.GaugeFunc(`engine_dropped_total{cause="gray"}`, u(&e.droppedGray))
	reg.GaugeFunc(`engine_dropped_total{cause="malformed"}`, u(&e.droppedMalformed))
	reg.GaugeFunc("engine_batches_total", u(&e.batches))
	reg.GaugeFunc("engine_batch_packets_total", u(&e.batchPackets))
}

// Inject encodes a packet into wire format and enqueues it at its
// source AS, mirroring Fabric.Inject: the source border router will
// perform hop-0 verification and the first egress lookup when the
// frame is drained. The same MTU and source checks apply.
func (e *Engine) Inject(pkt *Packet) error {
	if pkt.Path == nil || len(pkt.Path.Hops) == 0 {
		return fmt.Errorf("dataplane: packet without path")
	}
	src := pkt.Path.Hops[0].Hop.IA
	if pkt.Src.IA != src {
		return fmt.Errorf("dataplane: source %s does not match path head %s", pkt.Src.IA, src)
	}
	a, ok := e.idx[src]
	if !ok {
		return fmt.Errorf("dataplane: source AS %s not in topology", src)
	}
	n := pkt.WireLen()
	if pkt.Path.MTU > 0 && n > int(pkt.Path.MTU) {
		e.droppedTooBig.Add(1)
		return fmt.Errorf("dataplane: packet of %d bytes exceeds path MTU %d", n, pkt.Path.MTU)
	}
	f := e.pool.get(n)
	var s slayers.SCION
	pkt.HopIdx = 0
	if _, err := EncodePacket(&s, pkt, f.b); err != nil {
		e.pool.put(f)
		return err
	}
	e.enqueue(a, f)
	return nil
}

// InjectBytes enqueues one raw wire-format packet at its source AS
// (parsed from the header). The bytes are copied into a pooled frame;
// the caller keeps ownership of data. mtu > 0 enforces a path MTU the
// way Fabric.Inject does.
func (e *Engine) InjectBytes(data []byte, mtu uint16) error {
	var s slayers.SCION
	if err := s.DecodeFromBytes(data); err != nil {
		return err
	}
	a, ok := e.idx[s.SrcIA]
	if !ok {
		return fmt.Errorf("dataplane: source AS %s not in topology", s.SrcIA)
	}
	if mtu > 0 && len(data) > int(mtu) {
		e.droppedTooBig.Add(1)
		return fmt.Errorf("dataplane: packet of %d bytes exceeds path MTU %d", len(data), mtu)
	}
	f := e.pool.get(len(data))
	copy(f.b, data)
	e.enqueue(a, f)
	return nil
}

func (e *Engine) enqueue(a int32, f *frame) {
	e.inflight.Add(1)
	e.rings[a].push(f)
}

// Flush drains the network: workers forward until no frame is in
// flight, then return. Deliver/SCMP handlers run on worker goroutines
// and may Inject follow-up packets (they extend the same flush).
func (e *Engine) Flush() {
	if e.LossFunc == nil {
		e.LossFunc = HashLoss(e.Seed)
	}
	bs := e.BatchSize
	if bs < 1 {
		bs = defaultBatchSize
	}
	w := min(max(e.Workers, 1), len(e.ias))
	if len(e.workers) < w {
		e.workers = append(e.workers, make([]*workerCtx, w-len(e.workers))...)
	}
	for i, ctx := range e.workers[:w] {
		if ctx == nil || ctx.bs != bs {
			e.workers[i] = newWorkerCtx(bs)
		}
	}
	if w == 1 {
		e.runWorker(0, 1, e.workers[0])
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.runWorker(i, w, e.workers[i])
		}(i)
	}
	wg.Wait()
}

// workerCtx holds one worker's scratch so the steady state allocates
// nothing per packet.
type workerCtx struct {
	bs    int // resolved batch size: 1 is per-packet mode
	batch []*frame
	ss    []slayers.SCION // decode scratch, one per batch slot
	hfs   []slayers.HopField
	jobs  []macJob
	jmap  []int // batch slot of each job
	ok    []bool
	live  []bool        // slot still in play after verification
	quote slayers.SCION // SCMP quote decode scratch
	msg   WireSCMPMsg   // SCMP handler argument scratch
}

func newWorkerCtx(bs int) *workerCtx {
	return &workerCtx{
		bs:    bs,
		batch: make([]*frame, 0, bs),
		ss:    make([]slayers.SCION, bs),
		hfs:   make([]slayers.HopField, bs),
		jobs:  make([]macJob, 0, bs),
		jmap:  make([]int, 0, bs),
		ok:    make([]bool, bs),
		live:  make([]bool, bs),
	}
}

func (e *Engine) runWorker(w, nw int, ctx *workerCtx) {
	for {
		progress := false
		for a := w; a < len(e.rings); a += nw {
			r := e.rings[a]
			for {
				ctx.batch = ctx.batch[:0]
				for len(ctx.batch) < ctx.bs {
					f := r.pop()
					if f == nil {
						break
					}
					ctx.batch = append(ctx.batch, f)
				}
				if len(ctx.batch) == 0 {
					break
				}
				progress = true
				e.processBatch(int32(a), ctx)
			}
		}
		if e.inflight.Load() == 0 {
			return
		}
		if !progress {
			runtime.Gosched()
		}
	}
}

// terminal retires a frame: its journey ended (delivered, dropped, or
// handed to a local handler).
func (e *Engine) terminal(f *frame) {
	e.pool.put(f)
	e.inflight.Add(-1)
}

// processBatch runs the border-router pipeline of AS a over one batch:
// decode all frames, collect their hop-field MAC checks, verify them
// in one pass against the router's key, then act on each verdict.
func (e *Engine) processBatch(a int32, ctx *workerCtx) {
	local := e.ias[a]
	e.batches.Add(1)
	e.batchPackets.Add(uint64(len(ctx.batch)))
	ctx.jobs = ctx.jobs[:0]
	ctx.jmap = ctx.jmap[:0]

	for i, f := range ctx.batch {
		ctx.live[i] = false
		s := &ctx.ss[i]
		if err := s.DecodeFromBytes(f.b); err != nil {
			e.droppedMalformed.Add(1)
			e.terminal(f)
			continue
		}
		if s.NextHdr == slayers.NextHdrSCMP {
			e.scmpWalkStep(a, f, s, ctx)
			continue
		}
		if s.PathType != slayers.PathTypeSCION {
			e.droppedMalformed.Add(1)
			e.terminal(f)
			continue
		}
		if f.arrived {
			// Ingress border router: advance to the local hop field.
			if err := s.IncPath(); err != nil {
				e.droppedMalformed.Add(1)
				e.terminal(f)
				continue
			}
		}
		hf, err := s.HopField(int(s.CurrHF))
		if err != nil {
			e.droppedMalformed.Add(1)
			e.terminal(f)
			continue
		}
		ctx.hfs[i] = hf
		ctx.live[i] = true
		if !e.DisableMAC {
			ctx.jobs = append(ctx.jobs, macJob{in: hf.ConsIngress, out: hf.ConsEgress, mac: hf.MAC})
			ctx.jmap = append(ctx.jmap, i)
		} else {
			ctx.ok[i] = true
		}
	}

	if len(ctx.jobs) > 0 {
		key := e.keys[a]
		if ctx.bs == 1 && !e.keyedSingle {
			// Per-packet mode: the naive baseline — fresh key schedule
			// per MAC, no shared state, no verdict cache.
			for j, job := range ctx.jobs {
				want := hopMACUncached(key, combinatorHop(local, job.in, job.out))
				ctx.ok[ctx.jmap[j]] = want == job.mac
			}
		} else {
			okScratch := ctx.ok[:len(ctx.jobs)]
			cache := ctx.bs > 1 && !e.noVerdictCache
			e.verifiers[a].verifyBatch(key, local, ctx.jobs, okScratch, cache)
			// Scatter job verdicts back to batch slots (in place is safe:
			// job j's slot index jmap[j] >= j).
			for j := len(ctx.jobs) - 1; j >= 0; j-- {
				ctx.ok[ctx.jmap[j]] = okScratch[j]
			}
		}
	}

	for i, f := range ctx.batch {
		if !ctx.live[i] {
			continue
		}
		s := &ctx.ss[i]
		if !ctx.ok[i] {
			e.droppedBadMAC.Add(1)
			if f.arrived {
				e.emitSCMP(a, s, SCMPBadMAC, seg.LinkKey{}, ctx)
			}
			// At the source AS the drop is silent, as in the Fabric.
			e.terminal(f)
			continue
		}
		if f.arrived && s.AtDestination() {
			e.delivered.Add(1)
			if fn := e.deliver[a]; fn != nil {
				fn(s)
			}
			e.terminal(f)
			continue
		}
		e.egressStep(a, f, s, ctx.hfs[i], ctx)
	}
}

// combinatorHop adapts a wire hop field to the MAC input tuple.
func combinatorHop(ia addr.IA, in, out addr.IfID) combinator.Hop {
	return combinator.Hop{IA: ia, In: in, Out: out}
}

// egressStep forwards a verified frame out of AS a's egress interface,
// mirroring Fabric.forwardFrom: unknown interface drops with a
// destination-unreachable SCMP, a failed link revokes, gray loss sheds
// silently, otherwise the frame moves to the neighbor's ingress ring.
func (e *Engine) egressStep(a int32, f *frame, s *slayers.SCION, hf slayers.HopField, ctx *workerCtx) {
	ent := e.lookupIf(a, hf.ConsEgress)
	if ent.link == nil {
		e.droppedNoRoute.Add(1)
		e.emitSCMP(a, s, SCMPDestUnreachable, seg.LinkKey{}, ctx)
		e.terminal(f)
		return
	}
	local := e.ias[a]
	if e.failed[ent.link.ID].Load() {
		e.revocations.Add(1)
		e.emitSCMP(a, s, SCMPRevokedLink, seg.LinkKey{IA: local, If: hf.ConsEgress}, ctx)
		e.terminal(f)
		return
	}
	if bits := e.loss[ent.link.ID].Load(); bits != 0 {
		rate := math.Float64frombits(bits)
		if e.LossFunc(s.FlowID, ent.link.ID, rate) {
			e.droppedGray.Add(1)
			e.terminal(f)
			return
		}
	}
	e.forwarded.Add(1)
	f.arrived = true
	e.rings[ent.dst].push(f)
}

// emitSCMP generates a control message at AS a about the packet s and
// starts it on the walk back toward the original sender. A failure at
// the source AS (CurrHF 0) delivers locally without building a frame,
// as in Fabric.emitSCMP.
func (e *Engine) emitSCMP(a int32, orig *slayers.SCION, typ SCMPType, link seg.LinkKey, ctx *workerCtx) {
	local := e.ias[a]
	if orig.CurrHF == 0 {
		if fn := e.scmp[a]; fn != nil {
			ctx.msg = WireSCMPMsg{
				Type: typ, Link: link, Offender: local,
				FlowID: orig.FlowID, SrcIA: orig.SrcIA, DstIA: orig.DstIA,
			}
			fn(&ctx.msg)
		}
		return
	}
	quote := orig.HeaderBytes()
	hdr := slayers.SCION{
		FlowID:     orig.FlowID,
		NextHdr:    slayers.NextHdrSCMP,
		PayloadLen: uint16(slayers.SCMPHdrLen + len(quote)),
		PathType:   slayers.PathTypeEmpty,
		DstIA:      orig.SrcIA,
		SrcIA:      local,
		DstHost:    orig.SrcHost,
		SrcHost:    addr.HostSvc(local, addr.SvcBR),
	}
	hdrLen, err := hdr.HdrLen()
	if err != nil {
		return
	}
	f := e.pool.get(hdrLen + slayers.SCMPHdrLen + len(quote))
	if _, err := hdr.SerializeTo(f.b); err != nil {
		e.pool.put(f)
		return
	}
	msg := slayers.SCMP{
		Type:     wireSCMPType(typ),
		Offender: local,
		LinkIA:   link.IA,
		LinkIf:   link.If,
		WalkIdx:  orig.CurrHF,
		Quote:    quote,
	}
	if _, err := msg.SerializeTo(f.b[hdrLen:]); err != nil {
		e.pool.put(f)
		return
	}
	// The walk starts at the offender itself: the first drained step
	// moves the message over the arrival link.
	e.enqueue(a, f)
}

// scmpWalkStep relays an SCMP frame one hop closer to the original
// sender (the mirror image of data-plane forwarding): WalkIdx is the
// current AS's index on the quoted path; at zero the message arrived
// home and is delivered, otherwise it leaves over the link attached to
// the quoted hop's ingress interface with WalkIdx decremented in
// place. SCMP messages are never subject to MAC checks, failures, or
// loss, matching the Fabric.
func (e *Engine) scmpWalkStep(a int32, f *frame, s *slayers.SCION, ctx *workerCtx) {
	quote := &ctx.quote
	var m slayers.SCMP
	if err := m.DecodeFromBytes(s.Payload()); err != nil {
		e.droppedMalformed.Add(1)
		e.terminal(f)
		return
	}
	if err := quote.DecodeHeader(m.Quote); err != nil {
		e.droppedMalformed.Add(1)
		e.terminal(f)
		return
	}
	if m.WalkIdx == 0 {
		if fn := e.scmp[a]; fn != nil {
			ctx.msg = WireSCMPMsg{
				Type:     scmpTypeFromWire(m.Type),
				Link:     seg.LinkKey{IA: m.LinkIA, If: m.LinkIf},
				Offender: m.Offender,
				FlowID:   quote.FlowID,
				SrcIA:    quote.SrcIA,
				DstIA:    quote.DstIA,
			}
			fn(&ctx.msg)
		}
		e.terminal(f)
		return
	}
	hf, err := quote.HopField(int(m.WalkIdx))
	if err != nil {
		e.droppedMalformed.Add(1)
		e.terminal(f)
		return
	}
	ent := e.lookupIf(a, hf.ConsIngress)
	if ent.link == nil {
		// No arrival link — the quoted path does not match the
		// topology. Vanish silently, as in the Fabric.
		e.terminal(f)
		return
	}
	_ = m.SetWalkIdx(m.WalkIdx - 1) // rewrites the frame bytes in place
	e.rings[ent.dst].push(f)
}
