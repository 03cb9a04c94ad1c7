package codec_test

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/beacon"
	"scionmpr/internal/chaos"
	"scionmpr/internal/codec"
	"scionmpr/internal/core"
	"scionmpr/internal/pathsrv"
	"scionmpr/internal/seg"
	"scionmpr/internal/topology"
)

// The decoders built on codec, driven through their public entry points.

func u32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
func u64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// walCheckpoint frames body as a WAL checkpoint record at time 0.
func walCheckpoint(body []byte) []byte {
	return codec.AppendFrame(nil, cat([]byte{5}, u64(0), body))
}

func diversity() core.Checkpointer {
	return core.NewDiversity(core.DefaultParams(5))(addr.MustIA(1, 1)).(core.Checkpointer)
}

// twoCoreConfig is the smallest beaconing run: two core ASes, one link.
func twoCoreConfig() beacon.RunConfig {
	g := topology.New()
	a, b := addr.MustIA(1, 1), addr.MustIA(1, 2)
	g.AddAS(a, true)
	g.AddAS(b, true)
	g.MustConnect(a, b, topology.Core)
	return beacon.DefaultRunConfig(g, beacon.CoreMode, core.NewBaseline(5), 15)
}

// snapshotWithNetwork frames a beacon snapshot for twoCoreConfig at time
// 0 whose network section is network and whose server sections are empty.
func snapshotWithNetwork(network []byte) []byte {
	header := cat(u32(0x4D505243), []byte{0, 1}, u64(0), u64(0), u32(2), []byte{0})
	snap := codec.AppendFrame(nil, header)
	snap = codec.AppendFrame(snap, network)
	snap = codec.AppendFrame(snap, nil)
	return codec.AppendFrame(snap, nil)
}

// TestCraftedCountsFailCheaply feeds each decoder a short input whose
// length prefix claims far more elements than the input holds. Each must
// fail, and must fail before allocating for the claimed count. Claims
// stay at or below 2^20 elements so a decoder that does allocate costs
// tens of MiB, not the machine.
func TestCraftedCountsFailCheaply(t *testing.T) {
	const claim = 1 << 20
	cfg := twoCoreConfig()
	cases := []struct {
		name   string
		decode func() bool // reports whether the input was rejected
	}{
		{"seg.Decode: 255 entries, none present", func() bool {
			_, err := seg.Decode(cat(make([]byte, 26), []byte{255}))
			return err != nil
		}},
		{"beacon.Resume: network counters", func() bool {
			_, err := beacon.Resume(cfg, snapshotWithNetwork(u32(claim)))
			return err != nil
		}},
		{"pathsrv.Recover: checkpoint pairs", func() bool {
			body := cat(u64(0), u32(1), u64(0), u64(0), u64(0), u32(claim/4))
			_, st := pathsrv.Recover(walCheckpoint(body), pathsrv.Config{Shards: 1})
			return st.Records == 0 && st.Truncated
		}},
		{"core.Diversity.RestoreState: interned links", func() bool {
			return diversity().RestoreState(u32(claim)) != nil
		}},
		{"chaos.Engine.RestoreState: gray rates", func() bool {
			return chaos.NewEngine(nil).RestoreState(cat(u32(0), u32(1), u32(7), u32(claim))) != nil
		}},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rejected := c.decode()
		runtime.ReadMemStats(&after)
		if !rejected {
			t.Errorf("%s: crafted input accepted", c.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes rejecting the crafted input", c.name, d)
		}
	}
}

// FuzzCheckpointBody feeds arbitrary bytes to the state decoders behind
// a valid frame. FuzzWALReplay mutates whole WAL images, so nearly every
// input it makes fails the CRC before a body decoder sees it; here the
// body decoders see every input. None may panic, and a checkpoint that
// loads must yield a working service.
func FuzzCheckpointBody(f *testing.F) {
	f.Add([]byte{})
	f.Add(cat(u64(3), u32(1), u64(2), u64(0), u64(1), u32(0), u32(0), u32(0)))
	f.Add(cat(u32(1), u64(0x0001000000000002), []byte{0, 1}, u32(0), u32(0)))
	f.Add(cat(u32(0), u32(1), u32(7), u32(1), u64(math.Float64bits(0.5)), u32(0), u32(0), u32(0)))
	f.Fuzz(func(t *testing.T, body []byte) {
		svc, st := pathsrv.Recover(walCheckpoint(body), pathsrv.Config{Shards: 4})
		if svc == nil {
			t.Fatal("Recover returned nil service")
		}
		if st.TruncatedBytes < 0 || st.TruncatedBytes > len(body)+17 {
			t.Fatalf("TruncatedBytes = %d for a %d-byte image", st.TruncatedBytes, len(body)+17)
		}
		svc.Publish(0)
		_ = svc.Digest()
		_ = chaos.NewEngine(nil).RestoreState(body)
		_ = diversity().RestoreState(body)
	})
}
