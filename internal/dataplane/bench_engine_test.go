package dataplane

import (
	"testing"

	"scionmpr/internal/slayers"
)

// benchForward measures single-core forwarding throughput of the wire
// engine: one pre-encoded packet is injected repeatedly as raw bytes
// and driven end to end (decode, MAC verify, per-hop forwarding,
// delivery). Workers is pinned to 1 so pkts/s is per core; configure
// sets the rest.
func benchForward(b *testing.B, configure func(*Engine)) {
	e := newEnv(b)
	eng := NewEngine(e.topo, e.infra.ForwardingKey)
	eng.Workers = 1
	configure(eng)

	var delivered int
	eng.OnDeliver(a4, func(s *slayers.SCION) { delivered++ })

	pkt := testPacket(e, 0, make([]byte, 128), 1)
	buf := make([]byte, pkt.WireLen())
	var s slayers.SCION
	if _, err := EncodePacket(&s, pkt, buf); err != nil {
		b.Fatal(err)
	}
	mtu := e.paths[0].MTU

	// Warm pools and caches outside the timed region.
	if err := eng.InjectBytes(buf, mtu); err != nil {
		b.Fatal(err)
	}
	eng.Flush()
	delivered = 0

	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 256
	for n := 0; n < b.N; {
		m := chunk
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			if err := eng.InjectBytes(buf, mtu); err != nil {
				b.Fatal(err)
			}
		}
		eng.Flush()
		n += m
	}
	b.StopTimer()

	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
	pps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "pkts/s")
	b.ReportMetric(pps*float64(len(e.paths[0].Hops)), "hops/s")
}

// BenchmarkForward splits batch mode's gain over the naive per-packet
// baseline into its factors, each one mode apart:
//
//	single_mac    per-packet, fresh HMAC key schedule per MAC (baseline)
//	single_keyed  per-packet, the router's keyed HMAC state: key reuse
//	batch_nocache batches of 32, keyed state, no verdict cache: batching
//	batch_mac     batches of 32, keyed state and verdict cache: the cache
//	default_mac   only Workers set, as perfbench and the differential
//	              replays build it; must match batch_mac
//
// The _nomac modes skip verification and bound what MAC work can cost.
func BenchmarkForward(b *testing.B) {
	batch := func(size int, noMAC bool) func(*Engine) {
		return func(eng *Engine) { eng.BatchSize, eng.DisableMAC = size, noMAC }
	}
	b.Run("single_mac", func(b *testing.B) { benchForward(b, batch(1, false)) })
	b.Run("single_nomac", func(b *testing.B) { benchForward(b, batch(1, true)) })
	b.Run("batch_mac", func(b *testing.B) { benchForward(b, batch(defaultBatchSize, false)) })
	b.Run("batch_nomac", func(b *testing.B) { benchForward(b, batch(defaultBatchSize, true)) })
	b.Run("default_mac", func(b *testing.B) { benchForward(b, func(*Engine) {}) })
	b.Run("single_keyed", func(b *testing.B) {
		benchForward(b, func(eng *Engine) { eng.BatchSize, eng.keyedSingle = 1, true })
	})
	b.Run("batch_nocache", func(b *testing.B) {
		benchForward(b, func(eng *Engine) { eng.BatchSize, eng.noVerdictCache = defaultBatchSize, true })
	})
}
