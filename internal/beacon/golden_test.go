package beacon

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// snapshotGoldenSHA256 pins the exact bytes of a RunWithCheckpoint
// snapshot of the chaos determinism scenario: every section kind
// (header, network, servers with PCBs and diversity-selector state,
// chaos engine state). Round-trip tests cannot see a format change that
// encoder and decoder make together; this can. Change it only with a
// deliberate, versioned format change.
const snapshotGoldenSHA256 = "4acea8d9c3cb64e5f1bad2f90619b06e415648a0b15283bbc49ff4be5b3a68b7"

func TestSnapshotBytesGolden(t *testing.T) {
	_, snap, err := RunWithCheckpoint(chaosCfg(t, checkpointTopo(t), 1, 1), 37*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != snapshotGoldenSHA256 {
		t.Fatalf("snapshot SHA-256 = %s, want %s (%d bytes)", got, snapshotGoldenSHA256, len(snap))
	}
}
