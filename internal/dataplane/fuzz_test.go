package dataplane

import (
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/combinator"
)

// FuzzHopFieldMAC fuzzes the hop-field MAC primitives with arbitrary
// keys and hop coordinates: the cached, uncached, and batched verifiers
// must agree with each other on every input, the MAC must be a pure
// function of (key, IA, in, out), and any single-bit tamper of the MAC
// must be rejected by the batch verifier.
func FuzzHopFieldMAC(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint64(0x0001_ff00_0000_0106), uint16(1), uint16(3), uint8(0))
	f.Add([]byte{}, uint64(0), uint16(0), uint16(0), uint8(47))
	f.Add([]byte{0xff}, ^uint64(0), ^uint16(0), ^uint16(0), uint8(13))

	f.Fuzz(func(t *testing.T, key []byte, iaRaw uint64, in, out uint16, flip uint8) {
		ia := addr.IAFromUint64(iaRaw)
		hop := combinator.Hop{IA: ia, In: addr.IfID(in), Out: addr.IfID(out)}

		// Determinism and cached/uncached agreement.
		m1 := hopMAC(key, hop)
		m2 := hopMAC(key, hop)
		mu := hopMACUncached(key, hop)
		if m1 != m2 || m1 != mu {
			t.Fatalf("MAC not deterministic: %x %x %x", m1, m2, mu)
		}

		// Batch verifier must accept the genuine MAC and reject a
		// tampered one, in the same batch (exercising the verdict cache
		// with both outcomes for near-identical jobs).
		bad := m1
		bad[int(flip)%MACLen] ^= 1 << (flip % 8)
		jobs := []macJob{
			{in: hop.In, out: hop.Out, mac: m1},
			{in: hop.In, out: hop.Out, mac: bad},
			{in: hop.In, out: hop.Out, mac: m1},
		}
		ok := make([]bool, len(jobs))
		var v macVerifier
		v.verifyBatch(key, ia, jobs, ok, true)
		if !ok[0] || !ok[2] {
			t.Fatalf("batch verifier rejected genuine MAC (ok=%v)", ok)
		}
		if ok[1] {
			t.Fatalf("batch verifier accepted tampered MAC %x (genuine %x)", bad, m1)
		}
		// Re-verify through the warmed verdict cache and without it:
		// same answers.
		for _, cache := range []bool{true, false} {
			ok2 := make([]bool, len(jobs))
			v.verifyBatch(key, ia, jobs, ok2, cache)
			for i := range ok {
				if ok[i] != ok2[i] {
					t.Fatalf("cache=%v changed answer %d: %v -> %v", cache, i, ok[i], ok2[i])
				}
			}
		}
	})
}
