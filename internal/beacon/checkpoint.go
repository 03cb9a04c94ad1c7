// Checkpoint/restore for beaconing runs. A snapshot captures everything a
// resumed run needs to finish with a RunResult fingerprint byte-identical
// to the uninterrupted run: the simulator clock and executed count, the
// network's counters and fault state, every server's stats and beacon
// store, the selector state of stateful selectors, and the chaos engine's
// overlap bookkeeping. Pending events are deliberately NOT serialized —
// they are closures, and Resume re-creates the exact pending population
// from the RunConfig (see the registration-order comment on runActors).
//
// Snapshots are only taken at beaconing-interval boundaries, where no
// deliveries are in flight (link delays are far below the interval), so
// the event queue at capture time consists purely of reconstructible
// schedule entries: interval ticks, configured failures, and the chaos
// plan (a pure function of its seed).
//
// The wire format is a sequence of frames of internal/codec, which owns
// the framing (u32 payload length, u32 CRC-32 (IEEE) of the payload,
// then the payload, all big-endian), in fixed section order: header, network, one section per
// server in Topo.IAs() order, then the chaos section iff the run has a
// chaos schedule. Section payloads are read with codec.Reader.
package beacon

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/codec"
	"scionmpr/internal/core"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
	"scionmpr/internal/topology"
)

const (
	snapMagic   = 0x4D505243 // "MPRC"
	snapVersion = 1
)

// checkpointSupported rejects configurations whose fingerprint folds in
// cumulative observer state a resumed run cannot reproduce.
func checkpointSupported(cfg RunConfig) error {
	if cfg.Telemetry != nil || cfg.Tracer != nil {
		return fmt.Errorf("beacon: checkpoint/resume with telemetry or tracing attached is unsupported (their cumulative state is part of the fingerprint)")
	}
	// Note on keys: with cfg.Infra nil, both runs call NewInfra(Sized),
	// which derives keys deterministically, so the resumed run rebuilds
	// identical signers. A caller passing its own Infra must pass the
	// same one (or an identically constructed one) to Resume.
	return nil
}

// appendNetworkState serializes a NetworkState canonically (maps in
// sorted key order).
func appendNetworkState(dst []byte, st sim.NetworkState) []byte {
	keys := make([]sim.IfKey, 0, len(st.Counters))
	for k := range st.Counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].IA != keys[j].IA {
			return keys[i].IA.Less(keys[j].IA)
		}
		return keys[i].If < keys[j].If
	})
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		c := st.Counters[k]
		dst = binary.BigEndian.AppendUint64(dst, k.IA.Uint64())
		dst = binary.BigEndian.AppendUint16(dst, uint16(k.If))
		dst = binary.BigEndian.AppendUint64(dst, c.TxBytes)
		dst = binary.BigEndian.AppendUint64(dst, c.TxMsgs)
		dst = binary.BigEndian.AppendUint64(dst, c.RxBytes)
		dst = binary.BigEndian.AppendUint64(dst, c.RxMsgs)
	}

	failed := append([]topology.LinkID(nil), st.Failed...)
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(failed)))
	for _, id := range failed {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
	}

	ids := make([]topology.LinkID, 0, len(st.Delays))
	for id := range st.Delays {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
		dst = binary.BigEndian.AppendUint64(dst, uint64(st.Delays[id]))
	}

	ids = ids[:0]
	for id := range st.Loss {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(st.Loss[id]))
	}

	if st.LossSeeded {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(st.LossSeed))
	dst = binary.BigEndian.AppendUint64(dst, st.LossDraws)
	dst = binary.BigEndian.AppendUint64(dst, st.Dropped)
	dst = binary.BigEndian.AppendUint64(dst, st.DroppedOnFailedLinks)
	dst = binary.BigEndian.AppendUint64(dst, st.DroppedByLoss)
	return dst
}

// readNetworkState decodes a network section, rejecting any section
// that does not decode exactly.
func readNetworkState(b []byte) (sim.NetworkState, error) {
	r := codec.NewReader(b)
	var st sim.NetworkState
	n := r.Count(8 + 2 + 4*8)
	st.Counters = make(map[sim.IfKey]sim.Counter, n)
	for i := 0; i < n; i++ {
		k := sim.IfKey{IA: addr.IAFromUint64(r.U64()), If: addr.IfID(r.U16())}
		st.Counters[k] = sim.Counter{
			TxBytes: r.U64(), TxMsgs: r.U64(),
			RxBytes: r.U64(), RxMsgs: r.U64(),
		}
	}
	n = r.Count(4)
	for i := 0; i < n; i++ {
		st.Failed = append(st.Failed, topology.LinkID(r.U32()))
	}
	n = r.Count(4 + 8)
	st.Delays = make(map[topology.LinkID]time.Duration, n)
	for i := 0; i < n; i++ {
		id := topology.LinkID(r.U32())
		st.Delays[id] = time.Duration(r.U64())
	}
	n = r.Count(4 + 8)
	st.Loss = make(map[topology.LinkID]float64, n)
	for i := 0; i < n; i++ {
		id := topology.LinkID(r.U32())
		st.Loss[id] = math.Float64frombits(r.U64())
	}
	st.LossSeeded = r.U8() != 0
	st.LossSeed = int64(r.U64())
	st.LossDraws = r.U64()
	st.Dropped = r.U64()
	st.DroppedOnFailedLinks = r.U64()
	st.DroppedByLoss = r.U64()
	if err := r.Done(); err != nil {
		return sim.NetworkState{}, fmt.Errorf("beacon: snapshot network section: %w", err)
	}
	return st, nil
}

// appendServerState serializes one server: identity, stats, the beacon
// store (origins in sorted order, entries in the store's canonical
// order — the same traversal the fingerprint uses), and the selector
// state blob for stateful selectors.
func appendServerState(dst []byte, srv *Server, now sim.Time) []byte {
	dst = binary.BigEndian.AppendUint64(dst, srv.cfg.Local.Uint64())
	dst = binary.BigEndian.AppendUint16(dst, srv.segID)
	if srv.down {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, srv.Originated)
	dst = binary.BigEndian.AppendUint64(dst, srv.Propagated)
	dst = binary.BigEndian.AppendUint64(dst, srv.Received)
	dst = binary.BigEndian.AppendUint64(dst, srv.Rejected)
	dst = binary.BigEndian.AppendUint64(dst, srv.DroppedWhileDown)

	origins := srv.store.Origins()
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(origins)))
	for _, origin := range origins {
		entries := srv.store.Entries(now, origin)
		dst = binary.BigEndian.AppendUint64(dst, origin.Uint64())
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
		for _, e := range entries {
			enc := e.PCB.Encode()
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(enc)))
			dst = append(dst, enc...)
			dst = binary.BigEndian.AppendUint16(dst, uint16(e.Ingress))
			dst = binary.BigEndian.AppendUint64(dst, uint64(e.ReceivedAt))
		}
	}

	if cp, ok := srv.cfg.Selector.(core.Checkpointer); ok {
		blob := cp.AppendState(nil)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(blob)))
		dst = append(dst, blob...)
	} else {
		dst = binary.BigEndian.AppendUint32(dst, 0)
	}
	return dst
}

// restoreServerState applies one server section. The section's IA must
// match the server's (both follow Topo.IAs() order).
func restoreServerState(b []byte, srv *Server) error {
	r := codec.NewReader(b)
	ia := addr.IAFromUint64(r.U64())
	if r.Err() == nil && ia != srv.cfg.Local {
		return fmt.Errorf("beacon: snapshot server section for %v, want %v (topology mismatch?)", ia, srv.cfg.Local)
	}
	srv.segID = r.U16()
	srv.down = r.U8() != 0
	srv.Originated = r.U64()
	srv.Propagated = r.U64()
	srv.Received = r.U64()
	srv.Rejected = r.U64()
	srv.DroppedWhileDown = r.U64()

	nOrigins := r.Count(8 + 4)
	for i := 0; i < nOrigins; i++ {
		r.U64() // origin — implied by the entries themselves
		nEntries := r.Count(4 + 2 + 8)
		for j := 0; j < nEntries; j++ {
			enc := r.Bytes(int(r.U32()))
			ingress := addr.IfID(r.U16())
			receivedAt := sim.Time(r.U64())
			if r.Err() != nil {
				break
			}
			pcb, err := seg.Decode(enc)
			if err != nil {
				return fmt.Errorf("beacon: snapshot PCB for %v: %w", srv.cfg.Local, err)
			}
			if res := srv.store.InsertPCB(receivedAt, pcb, ingress); res != Stored {
				return fmt.Errorf("beacon: snapshot entry for %v re-inserted as %v, want Stored", srv.cfg.Local, res)
			}
		}
	}

	blob := r.Bytes(int(r.U32()))
	if len(blob) > 0 {
		cp, ok := srv.cfg.Selector.(core.Checkpointer)
		if !ok {
			return fmt.Errorf("beacon: snapshot has selector state for %v but selector %q cannot restore it", srv.cfg.Local, srv.cfg.Selector.Name())
		}
		if err := cp.RestoreState(blob); err != nil {
			return err
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("beacon: snapshot server section for %v: %w", srv.cfg.Local, err)
	}
	return nil
}

// capture builds the full snapshot at simulated time now. Must run in
// serial context (a BeforeStep hook) with no deliveries in flight.
func (a *runActors) capture(cfg RunConfig, eng *chaos.Engine, now sim.Time) ([]byte, error) {
	if n := a.s.PendingDeliveries(); n != 0 {
		return nil, fmt.Errorf("beacon: checkpoint at %v with %d deliveries in flight", now, n)
	}
	var header []byte
	header = binary.BigEndian.AppendUint32(header, snapMagic)
	header = binary.BigEndian.AppendUint16(header, snapVersion)
	header = binary.BigEndian.AppendUint64(header, uint64(now))
	header = binary.BigEndian.AppendUint64(header, a.s.Executed)
	ias := cfg.Topo.IAs()
	header = binary.BigEndian.AppendUint32(header, uint32(len(ias)))
	if eng != nil {
		header = append(header, 1)
	} else {
		header = append(header, 0)
	}
	snap := codec.AppendFrame(nil, header)
	snap = codec.AppendFrame(snap, appendNetworkState(nil, a.net.CheckpointState()))
	for _, ia := range ias {
		snap = codec.AppendFrame(snap, appendServerState(nil, a.servers[ia], now))
	}
	if eng != nil {
		snap = codec.AppendFrame(snap, eng.AppendState(nil))
	}
	return snap, nil
}

// RunWithCheckpoint executes cfg exactly like Run while also capturing a
// resumable snapshot at the first beaconing-interval boundary at or after
// `at`. It returns the completed run and the snapshot; feeding the
// snapshot to Resume with the same cfg reproduces the remainder of the
// run, fingerprint-identical.
func RunWithCheckpoint(cfg RunConfig, at time.Duration) (*RunResult, []byte, error) {
	if err := checkpointSupported(cfg); err != nil {
		return nil, nil, err
	}
	if at <= 0 || at > cfg.Duration {
		return nil, nil, fmt.Errorf("beacon: checkpoint time %v outside run duration %v", at, cfg.Duration)
	}
	a, err := buildActors(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Align up to the next interval boundary: there, every pending event
	// is a schedule entry Resume can re-derive, and no deliveries are in
	// flight (link delays are orders of magnitude below the interval).
	iv := cfg.Interval
	aligned := sim.Time((at + iv - 1) / iv * iv)

	var (
		snap    []byte
		snapErr error
		eng     *chaos.Engine
	)
	a.s.BeforeStep(func(t sim.Time) {
		if snap != nil || snapErr != nil || t < aligned || time.Duration(t)%iv != 0 {
			return
		}
		snap, snapErr = a.capture(cfg, eng, t)
	})
	a.scheduleTicks(cfg)
	revokeAll := a.revokeAllFunc(cfg)
	a.scheduleFailures(cfg, 0, revokeAll)
	eng, err = a.applyChaos(cfg, revokeAll, nil)
	if err != nil {
		return nil, nil, err
	}
	res := a.finish(cfg, eng)
	if snapErr != nil {
		return nil, nil, snapErr
	}
	if snap == nil {
		return nil, nil, fmt.Errorf("beacon: no interval boundary at or after %v was reached", at)
	}
	return res, snap, nil
}

// Resume rebuilds a run from a snapshot taken by RunWithCheckpoint under
// the same RunConfig and executes it to completion. The returned
// RunResult's Fingerprint is byte-identical to the uninterrupted run's,
// for any worker count.
func Resume(cfg RunConfig, snapshot []byte) (*RunResult, error) {
	if err := checkpointSupported(cfg); err != nil {
		return nil, err
	}
	var secs [][]byte
	for rest := snapshot; len(rest) > 0; {
		sec, next, err := codec.NextFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("beacon: snapshot frame at offset %d: %w", len(snapshot)-len(rest), err)
		}
		secs = append(secs, sec)
		rest = next
	}
	if len(secs) < 2 {
		return nil, fmt.Errorf("beacon: snapshot has %d sections, want at least header and network", len(secs))
	}
	h := codec.NewReader(secs[0])
	if magic := h.U32(); h.Err() == nil && magic != snapMagic {
		return nil, fmt.Errorf("beacon: snapshot magic %#x, want %#x", magic, snapMagic)
	}
	if v := h.U16(); h.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("beacon: snapshot version %d, want %d", v, snapVersion)
	}
	now := sim.Time(h.U64())
	executed := h.U64()
	numServers := int(h.U32())
	hasChaos := h.U8() != 0
	if err := h.Done(); err != nil {
		return nil, fmt.Errorf("beacon: snapshot header: %w", err)
	}
	if hasChaos != (cfg.Chaos != nil) {
		return nil, fmt.Errorf("beacon: snapshot chaos presence (%v) disagrees with config (%v)", hasChaos, cfg.Chaos != nil)
	}
	want := 2 + numServers
	if hasChaos {
		want++
	}
	if len(secs) != want {
		return nil, fmt.Errorf("beacon: snapshot has %d sections, want %d", len(secs), want)
	}

	a, err := buildActors(cfg)
	if err != nil {
		return nil, err
	}
	ias := cfg.Topo.IAs()
	if len(ias) != numServers {
		return nil, fmt.Errorf("beacon: snapshot has %d servers, topology has %d", numServers, len(ias))
	}
	if now > a.end {
		return nil, fmt.Errorf("beacon: snapshot time %v beyond run duration %v", time.Duration(now), cfg.Duration)
	}
	a.s.Restore(now, executed)
	st, err := readNetworkState(secs[1])
	if err != nil {
		return nil, err
	}
	a.net.RestoreState(st)
	for i, ia := range ias {
		if err := restoreServerState(secs[2+i], a.servers[ia]); err != nil {
			return nil, err
		}
	}
	// Registration order (failures, chaos plan, ticks) reproduces the
	// original run's relative sequence numbers among same-timestamp
	// events: setup-registered fault actions held smaller sequence
	// numbers than the self-rescheduled interval ticks in flight at the
	// checkpoint. See runActors.
	revokeAll := a.revokeAllFunc(cfg)
	a.scheduleFailures(cfg, now, revokeAll)
	var chaosState []byte
	if hasChaos {
		chaosState = secs[len(secs)-1]
	}
	eng, err := a.applyChaos(cfg, revokeAll, chaosState)
	if err != nil {
		return nil, err
	}
	a.scheduleTicks(cfg)
	return a.finish(cfg, eng), nil
}
