package pathsrv

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"scionmpr/internal/addr"
	"scionmpr/internal/seg"
	"scionmpr/internal/sim"
)

// walGoldenSHA256 pins the exact bytes of goldenWAL's image. The WAL is a
// durable on-disk format: a replica restarted on a newer build must read
// an older build's log, so a codec refactor has to keep every byte.
// Change this only with a deliberate, versioned format change.
const walGoldenSHA256 = "34e2986365367f4ec6d314932e7278b9a9923fdb847a47a591cb703bd028d8e0"

// goldenWAL journals every record kind, compacts into a checkpoint, and
// journals every kind again as the tail.
func goldenWAL(t *testing.T) *WAL {
	sc := newWALScenario(Config{Shards: 8, RevocationTTL: 4 * hour})
	link := seg.LinkKey{IA: addr.MustIA(1, 20), If: 2}
	mutate := func(now sim.Time) {
		sc.register(now, mkSeg(t, now, 10, 20, 30))
		sc.register(now, mkSeg(t, now, 11, 21, 31))
		sc.publish(now)
		sc.revoke(now+hour/2, link, hour)
		sc.register(now+hour/2, mkSeg(t, now, 10, 22, 30))
		sc.publish(now + hour/2)
		sc.reinstate(now+hour, link)
	}
	mutate(0)
	// Refresh a segment without publishing, so the checkpoint carries a
	// snapshot entry that is no longer in the master list.
	sc.register(hour+1, mkSeg(t, hour+1, 10, 20, 30))
	sc.wal.Checkpoint(hour+1, sc.svc)
	mutate(2 * hour)
	return sc.wal
}

func TestWALBytesGolden(t *testing.T) {
	wal := goldenWAL(t)
	sum := sha256.Sum256(wal.Bytes())
	if got := hex.EncodeToString(sum[:]); got != walGoldenSHA256 {
		t.Fatalf("WAL image SHA-256 = %s, want %s (%d bytes)", got, walGoldenSHA256, wal.Len())
	}
	if _, st := Recover(wal.Bytes(), Config{Shards: 8, RevocationTTL: 4 * hour}); st.Truncated || st.Checkpoints != 1 {
		t.Fatalf("golden WAL does not replay cleanly: %+v", st)
	}
}
