package dataplane

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"scionmpr/internal/addr"
	"scionmpr/internal/chaos"
	"scionmpr/internal/combinator"
	"scionmpr/internal/sim"
	"scionmpr/internal/slayers"
	"scionmpr/internal/telemetry"
	"scionmpr/internal/topology"
)

// The wire engine is a chaos fault target like the fabric and the
// simulated network.
var _ chaos.FaultTarget = (*Engine)(nil)

// newWireEnv extends the shared beaconing env with a wire engine over
// the same topology and keys.
func newWireEnv(t *testing.T) (*env, *Engine) {
	t.Helper()
	e := newEnv(t)
	return e, NewEngine(e.topo, e.infra.ForwardingKey)
}

func testPacket(e *env, pathIdx int, payload []byte, flow uint32) *Packet {
	return &Packet{
		Src:     addr.HostIP4(a6, 10, 0, 0, 1),
		Dst:     addr.HostIP4(a4, 10, 0, 0, 2),
		Path:    e.paths[pathIdx],
		Payload: payload,
		FlowID:  flow,
	}
}

func TestEngineDelivery(t *testing.T) {
	e, eng := newWireEnv(t)
	var gotPayload []byte
	var gotSrc, gotDst addr.Host
	eng.OnDeliver(a4, func(s *slayers.SCION) {
		gotPayload = append([]byte(nil), s.Payload()...)
		gotSrc, gotDst = s.SrcHost, s.DstHost
	})
	pkt := testPacket(e, 0, []byte("hello wire"), 7)
	if err := eng.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if string(gotPayload) != "hello wire" {
		t.Fatalf("payload = %q", gotPayload)
	}
	if !gotSrc.Equal(pkt.Src) || !gotDst.Equal(pkt.Dst) {
		t.Errorf("hosts: %s -> %s", gotSrc, gotDst)
	}
	st := eng.Stats()
	if st.Delivered != 1 || st.Forwarded != uint64(len(e.paths[0].Hops)-1) {
		t.Errorf("stats %+v (path has %d hops)", st, len(e.paths[0].Hops))
	}
	if st.DroppedMalformed != 0 || st.DroppedBadMAC != 0 {
		t.Errorf("unexpected drops: %+v", st)
	}
}

func TestEngineInjectBytes(t *testing.T) {
	e, eng := newWireEnv(t)
	delivered := 0
	eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })
	pkt := testPacket(e, 0, []byte("raw bytes"), 9)
	buf := make([]byte, pkt.WireLen())
	var s slayers.SCION
	n, err := EncodePacket(&s, pkt, buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("EncodePacket wrote %d bytes, WireLen says %d", n, len(buf))
	}
	if err := eng.InjectBytes(buf, 0); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
	if err := eng.InjectBytes(buf[:len(buf)-1], 0); err == nil {
		t.Error("truncated packet accepted")
	}
	if err := eng.InjectBytes(buf, uint16(len(buf)-1)); err == nil {
		t.Error("over-MTU packet accepted")
	}
	if eng.Stats().DroppedTooBig != 1 {
		t.Errorf("droppedTooBig = %d", eng.Stats().DroppedTooBig)
	}
}

func TestEngineBadMAC(t *testing.T) {
	e, eng := newWireEnv(t)
	var scmps []*WireSCMPMsg
	eng.OnSCMP(a6, func(m *WireSCMPMsg) {
		cp := *m
		scmps = append(scmps, &cp)
	})

	// Tampered transit hop: dropped at the transit AS, SCMP walks back.
	fp := &FwdPath{Hops: append([]HopField(nil), e.paths[0].Hops...), MTU: e.paths[0].MTU}
	fp.Hops[1].MAC[0] ^= 0xff
	pkt := testPacket(e, 0, []byte("tampered"), 3)
	pkt.Path = fp
	if err := eng.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.DroppedBadMAC != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(scmps) != 1 || scmps[0].Type != SCMPBadMAC || scmps[0].FlowID != 3 {
		t.Fatalf("scmp = %+v", scmps)
	}
	if scmps[0].SrcIA != a6 || scmps[0].DstIA != a4 {
		t.Errorf("quoted IAs: %s -> %s", scmps[0].SrcIA, scmps[0].DstIA)
	}

	// Tampered hop 0: silent drop at the source, no SCMP (as in the
	// fabric).
	scmps = nil
	fp0 := &FwdPath{Hops: append([]HopField(nil), e.paths[0].Hops...), MTU: e.paths[0].MTU}
	fp0.Hops[0].MAC[3] ^= 1
	pkt0 := testPacket(e, 0, nil, 4)
	pkt0.Path = fp0
	if err := eng.Inject(pkt0); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if got := eng.Stats().DroppedBadMAC; got != 2 {
		t.Errorf("droppedBadMAC = %d", got)
	}
	if len(scmps) != 0 {
		t.Errorf("source-side bad MAC emitted SCMP %+v", scmps[0])
	}
}

func TestEngineRevocation(t *testing.T) {
	e, eng := newWireEnv(t)
	var revs []*WireSCMPMsg
	eng.OnSCMP(a6, func(m *WireSCMPMsg) {
		cp := *m
		revs = append(revs, &cp)
	})
	// Fail the egress link of the transit hop on the 3-hop path.
	hop := e.paths[1].Hops[1].Hop
	link := e.topo.LinkByIf(hop.IA, hop.Out)
	if link == nil {
		t.Fatal("no link for hop 1 egress")
	}
	eng.FailLink(link.ID)
	if !eng.Failed(link.ID) {
		t.Fatal("FailLink not visible")
	}
	if err := eng.Inject(testPacket(e, 1, []byte("x"), 11)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.Revocations != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(revs) != 1 {
		t.Fatalf("%d SCMP messages at source", len(revs))
	}
	if revs[0].Type != SCMPRevokedLink || revs[0].Link.IA != hop.IA || revs[0].Link.If != hop.Out {
		t.Errorf("revocation %+v, want link %s#%s", revs[0], hop.IA, hop.Out)
	}
	if revs[0].Offender != hop.IA {
		t.Errorf("offender %s, want %s", revs[0].Offender, hop.IA)
	}

	// Restore and the same packet goes through.
	eng.RestoreLink(link.ID)
	if err := eng.Inject(testPacket(e, 1, []byte("x"), 12)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if eng.Stats().Delivered != 1 {
		t.Errorf("post-restore stats %+v", eng.Stats())
	}
}

func TestEngineGrayLoss(t *testing.T) {
	e, eng := newWireEnv(t)
	var scmps int
	eng.OnSCMP(a6, func(m *WireSCMPMsg) { scmps++ })
	hop := e.paths[0].Hops[0].Hop
	link := e.topo.LinkByIf(hop.IA, hop.Out)
	eng.SetLinkLoss(link.ID, 1.0)
	if eng.LinkLoss(link.ID) != 1.0 {
		t.Fatal("loss not recorded")
	}
	if err := eng.Inject(testPacket(e, 0, []byte("x"), 21)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.DroppedGray != 1 || st.Delivered != 0 || scmps != 0 {
		t.Fatalf("gray loss must shed silently: %+v, %d scmps", st, scmps)
	}
	eng.SetLinkLoss(link.ID, 0)
	if eng.LinkLoss(link.ID) != 0 {
		t.Error("loss not cleared")
	}
}

func TestEngineNoRoute(t *testing.T) {
	e, eng := newWireEnv(t)
	var scmps []*WireSCMPMsg
	eng.OnSCMP(a6, func(m *WireSCMPMsg) {
		cp := *m
		scmps = append(scmps, &cp)
	})
	// Re-MAC the transit hop with a bogus egress interface: the MAC
	// verifies but the interface attaches to nothing.
	fp := &FwdPath{Hops: append([]HopField(nil), e.paths[1].Hops...), MTU: e.paths[1].MTU}
	h := fp.Hops[1].Hop
	h.Out = 63
	fp.Hops[1] = HopField{Hop: h, MAC: hopMAC(e.infra.ForwardingKey(h.IA), h)}
	pkt := testPacket(e, 1, []byte("x"), 31)
	pkt.Path = fp
	if err := eng.Inject(pkt); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	st := eng.Stats()
	if st.DroppedNoRoute != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
	if len(scmps) != 1 || scmps[0].Type != SCMPDestUnreachable {
		t.Fatalf("scmp = %+v", scmps)
	}
}

func TestEngineMTU(t *testing.T) {
	e, eng := newWireEnv(t)
	fp := e.paths[0]
	if fp.MTU == 0 {
		t.Skip("path has no MTU")
	}
	room := int(fp.MTU) - (testPacket(e, 0, nil, 0)).WireLen()
	over := testPacket(e, 0, make([]byte, room+1), 41)
	if err := eng.Inject(over); err == nil {
		t.Error("over-MTU packet accepted")
	}
	if eng.Stats().DroppedTooBig != 1 {
		t.Errorf("droppedTooBig = %d", eng.Stats().DroppedTooBig)
	}
	exact := testPacket(e, 0, make([]byte, room), 42)
	delivered := 0
	eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })
	if err := eng.Inject(exact); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	if delivered != 1 {
		t.Errorf("exact-MTU packet not delivered")
	}
}

func TestEngineWorkersAndModes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		batch   int // 0: left unset, the default batch mode
		noMAC   bool
		tamper  bool // corrupt a transit MAC on every fifth packet
	}{
		{"w1-default", 1, 0, false, false},
		{"w2-default", 2, 0, false, false},
		{"w1-default-tamper", 1, 0, false, true},
		{"w2-default-tamper", 2, 0, false, true},
		{"w1-batch", 1, 32, false, false},
		{"w4-batch", 4, 8, false, false},
		{"w4-batch-tamper", 4, 8, false, true},
		{"w2-single", 2, 1, false, false},
		{"w2-single-tamper", 2, 1, false, true},
		{"w1-nomac", 1, 32, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, eng := newWireEnv(t)
			eng.Workers = tc.workers
			eng.BatchSize = tc.batch
			eng.DisableMAC = tc.noMAC
			bad := &FwdPath{Hops: append([]HopField(nil), e.paths[0].Hops...), MTU: e.paths[0].MTU}
			bad.Hops[1].MAC[2] ^= 0x10
			total, tampered := 200, 0
			var delivered, scmps atomic.Int64
			eng.OnDeliver(a4, func(s *slayers.SCION) { delivered.Add(1) })
			eng.OnSCMP(a6, func(m *WireSCMPMsg) {
				if m.Type == SCMPBadMAC {
					scmps.Add(1)
				}
			})
			for i := 0; i < total; i++ {
				pkt := testPacket(e, 0, []byte("n"), uint32(i))
				if tc.tamper && i%5 == 0 {
					pkt.Path = bad
					tampered++
				}
				if err := eng.Inject(pkt); err != nil {
					t.Fatal(err)
				}
			}
			eng.Flush()
			want := int64(total - tampered)
			if delivered.Load() != want || scmps.Load() != int64(tampered) {
				t.Fatalf("delivered %d of %d, %d bad-MAC SCMPs for %d tampered",
					delivered.Load(), want, scmps.Load(), tampered)
			}
			st := eng.Stats()
			if st.Delivered != uint64(want) || st.DroppedBadMAC != uint64(tampered) {
				t.Errorf("stats %+v", st)
			}
			if st.Batches == 0 {
				t.Error("no batches counted")
			}
			// Every mode but per-packet verifies with the router's own
			// keyed state; per-packet mode never builds it.
			keyed := eng.verifiers[eng.idx[a6]].mac != nil
			if wantKeyed := !tc.noMAC && tc.batch != 1; keyed != wantKeyed {
				t.Errorf("source router keyed state built = %v, want %v", keyed, wantKeyed)
			}
		})
	}
}

// TestEngineForwardZeroAlloc holds the default forwarding path — an
// engine built by NewEngine with only Workers set, MAC verification on
// — to zero allocations once warm: inject a batch of raw frames over
// every test path, tampered ones included, and Flush.
func TestEngineForwardZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames at random under -race")
	}
	e, eng := newWireEnv(t)
	eng.Workers = 1
	var delivered, scmps int
	eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })
	eng.OnSCMP(a6, func(m *WireSCMPMsg) { scmps++ })
	var frames [][]byte
	var mtus []uint16
	for i, fp := range e.paths {
		for _, tamper := range []bool{false, true} {
			if tamper {
				fp = &FwdPath{Hops: append([]HopField(nil), fp.Hops...), MTU: fp.MTU}
				fp.Hops[len(fp.Hops)-1].MAC[0] ^= 1
			}
			pkt := testPacket(e, i, make([]byte, 64), uint32(len(frames)))
			pkt.Path = fp
			buf := make([]byte, pkt.WireLen())
			var s slayers.SCION
			if _, err := EncodePacket(&s, pkt, buf); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, buf)
			mtus = append(mtus, fp.MTU)
		}
	}
	run := func() {
		for i, f := range frames {
			if err := eng.InjectBytes(f, mtus[i]); err != nil {
				t.Fatal(err)
			}
		}
		eng.Flush()
	}
	run()
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, run); allocs != 0 {
		t.Errorf("warmed inject+Flush of %d frames allocates %v times", len(frames), allocs)
	}
	if want := (runs + 2) * len(e.paths); delivered != want || scmps != want {
		t.Errorf("delivered %d, %d SCMPs; want %d each", delivered, scmps, want)
	}
}

// TestVerdictCacheBound drives more than macCacheLimit distinct
// (ingress, egress, MAC) tuples through one verifier: the verdict
// cache never holds more than macCacheLimit entries, and verdicts stay
// right across the resets, including one in the middle of a batch.
func TestVerdictCacheBound(t *testing.T) {
	key := []byte("verdict-cache-bound-key")
	var v macVerifier
	// tuple i: a distinct interface pair; every fourth MAC is tampered.
	tuple := func(i int) (macJob, bool) {
		h := combinator.Hop{IA: a2, In: addr.IfID(i%1024 + 1), Out: addr.IfID(i/1024 + 1)}
		mac := hopMAC(key, h)
		valid := i%4 != 0
		if !valid {
			mac[i%MACLen] ^= 0x80
		}
		return macJob{in: h.In, out: h.Out, mac: mac}, valid
	}
	verify := func(from, n int) {
		t.Helper()
		jobs := make([]macJob, n)
		want := make([]bool, n)
		for k := range jobs {
			jobs[k], want[k] = tuple(from + k)
		}
		ok := make([]bool, n)
		v.verifyBatch(key, a2, jobs, ok, true)
		for k := range jobs {
			if ok[k] != want[k] {
				t.Fatalf("tuple %d: verdict %v, want %v", from+k, ok[k], want[k])
			}
		}
		if len(v.verdicts) > macCacheLimit {
			t.Fatalf("verdict cache holds %d entries, limit %d", len(v.verdicts), macCacheLimit)
		}
	}
	// One insert per call, so the bound is checked after every insert;
	// the stream resets the cache twice and leaves it 10 short of full.
	n := 3*macCacheLimit - 10
	for i := 0; i < n; i++ {
		verify(i, 1)
	}
	if len(v.verdicts) != macCacheLimit-10 {
		t.Fatalf("cache holds %d entries after %d inserts, want %d", len(v.verdicts), n, macCacheLimit-10)
	}
	// A batch that overflows the cache part way through, then one of
	// tuples the resets evicted: both are checked afresh.
	verify(n, 32)
	verify(0, 32)
}

func TestEngineChaosSchedule(t *testing.T) {
	e, eng := newWireEnv(t)
	hop := e.paths[1].Hops[1].Hop
	link := e.topo.LinkByIf(hop.IA, hop.Out)
	if link == nil {
		t.Fatal("no transit link")
	}

	s := &sim.Simulator{}
	ce := chaos.NewEngine(s, eng)
	sched := &chaos.Schedule{
		Seed: 1,
		End:  sim.Time(time.Minute),
		Events: []chaos.Event{
			{Kind: chaos.Flap, Link: link.ID, At: sim.Time(time.Second), Down: 10 * time.Second},
			{Kind: chaos.Gray, Link: link.ID, At: sim.Time(20 * time.Second), Down: 5 * time.Second, Rate: 1.0},
			{Kind: chaos.Spike, Link: link.ID, At: sim.Time(30 * time.Second), Down: time.Second, Delay: time.Millisecond},
		},
	}
	if err := ce.Apply(sched); err != nil {
		t.Fatal(err)
	}

	revoked, grayed := 0, 0
	eng.OnSCMP(a6, func(m *WireSCMPMsg) {
		if m.Type == SCMPRevokedLink {
			revoked++
		}
	})

	inject := func(flow uint32) {
		t.Helper()
		if err := eng.Inject(testPacket(e, 1, []byte("c"), flow)); err != nil {
			t.Fatal(err)
		}
		eng.Flush()
	}

	s.RunUntil(sim.Time(2 * time.Second)) // flap active
	if !eng.Failed(link.ID) {
		t.Fatal("chaos flap did not fail the engine link")
	}
	inject(1)
	if revoked != 1 {
		t.Errorf("no revocation during flap")
	}

	s.RunUntil(sim.Time(15 * time.Second)) // flap over
	if eng.Failed(link.ID) {
		t.Fatal("flap did not restore")
	}

	s.RunUntil(sim.Time(21 * time.Second)) // gray window
	if eng.LinkLoss(link.ID) != 1.0 {
		t.Fatalf("gray loss = %v", eng.LinkLoss(link.ID))
	}
	before := eng.Stats().DroppedGray
	inject(2)
	if eng.Stats().DroppedGray != before+1 {
		t.Error("no gray drop during gray window")
	}
	grayed++

	s.RunUntil(sim.Time(30500 * time.Millisecond)) // spike window: recorded, no behavior
	if eng.LinkDelay(link.ID) == 0 {
		t.Error("spike not recorded")
	}
	s.Run()
	if eng.LinkLoss(link.ID) != 0 || eng.Failed(link.ID) {
		t.Error("faults not fully restored at end of schedule")
	}
	inject(3)
	if eng.Stats().Delivered == 0 {
		t.Error("packet not delivered after schedule end")
	}
	_ = grayed
}

func TestEngineTelemetry(t *testing.T) {
	e, eng := newWireEnv(t)
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(reg)
	if err := eng.Inject(testPacket(e, 0, []byte("t"), 1)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	var buf bytes.Buffer
	reg.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{"engine_delivered_total 1", "engine_forwarded_total", "engine_batches_total"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("telemetry missing %q:\n%s", want, out)
		}
	}
}

func TestRingOverflow(t *testing.T) {
	r := newRing(4)
	pool := newFramePool()
	var frames []*frame
	for i := 0; i < 10; i++ {
		f := pool.get(1)
		f.b[0] = byte(i)
		frames = append(frames, f)
		r.push(f)
	}
	got := map[byte]bool{}
	for i := 0; i < 10; i++ {
		f := r.pop()
		if f == nil {
			t.Fatalf("pop %d returned nil", i)
		}
		got[f.b[0]] = true
	}
	if len(got) != 10 {
		t.Fatalf("recovered %d distinct frames", len(got))
	}
	if r.pop() != nil {
		t.Error("empty ring popped a frame")
	}
	_ = frames
}

func TestLinkDelayBounds(t *testing.T) {
	_, eng := newWireEnv(t)
	// Out-of-range link IDs must be ignored, not panic.
	bad := topology.LinkID(9999)
	eng.FailLink(bad)
	eng.RestoreLink(bad)
	eng.SetLinkLoss(bad, 0.5)
	eng.SetLinkDelay(bad, time.Second)
	if eng.Failed(bad) || eng.LinkLoss(bad) != 0 || eng.LinkDelay(bad) != 0 {
		t.Error("out-of-range link state recorded")
	}
}
