package serve

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ec"
	"repro/internal/hdfs"
	"repro/internal/testutil/leakcheck"
)

// startPersistentSystem is startTestSystem on datanodes backed by the
// extent store, whose reads verify each payload's CRC — so injected bit
// rot surfaces as a checksum refusal, as on a real disk.
func startPersistentSystem(t *testing.T, code ec.Code, opts ...Option) *System {
	t.Helper()
	leakcheck.Cleanup(t)
	sys, err := Start(hdfs.Config{
		Topology:    cluster.Topology{Racks: code.TotalShards() + 2, MachinesPerRack: 2},
		Code:        code,
		BlockSize:   4096,
		Replication: 3,
		Seed:        7,
	}, append(opts, WithDataDir(t.TempDir()))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// writeRaided stores one raided four-block file (a single stripe at
// k=4) through cl and returns its bytes and block metadata.
func writeRaided(t *testing.T, sys *System, cl *Client, seed int64) ([]byte, []hdfs.BlockInfo) {
	t.Helper()
	data := make([]byte, 3*4096+77)
	rand.New(rand.NewSource(seed)).Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks[:3] {
		if len(b.Locations) != 1 {
			t.Fatalf("raided block %d has %d replicas, want 1", i, len(b.Locations))
		}
	}
	return data, blocks
}

// TestReadAroundCorruptHelper: a rotten helper is an erasure, not a
// read failure. Block 1's only replica is rotted and block 0's holder
// is killed — two erasures, within every test codec's tolerance. The
// namenode keeps listing the rotten replica, so the reconstruction of
// block 0 must plan around it on its own; the read returns the
// original bytes and counts the refusal.
func TestReadAroundCorruptHelper(t *testing.T) {
	for _, code := range testCodecs(t) {
		t.Run(code.Name(), func(t *testing.T) {
			sys := startPersistentSystem(t, code)
			cl, err := Dial(sys.NameAddr(), code)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			data, blocks := writeRaided(t, sys, cl, 5)

			if err := sys.Cluster().InjectBitRot(blocks[1].Locations[0], blocks[1].ID, 5); err != nil {
				t.Fatal(err)
			}
			if err := sys.KillDataNode(blocks[0].Locations[0]); err != nil {
				t.Fatal(err)
			}

			got, err := cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read around a corrupt helper returned wrong bytes")
			}
			if c := cl.Counters(); c.CorruptReplicas < 1 {
				t.Fatalf("corrupt helper not counted: %+v", c)
			}
		})
	}
}

// TestHedgedReadRunsOneReconstructionPerAttempt: when the hedge's
// reconstruction fails before the replica chain does, the chain's
// failure must not start a second one. Block 0's only replica is
// rotted and throttled past the hedge delay, and the holders of blocks
// 1 and 2 are killed, so the stripe is past RS(4,2)'s tolerance and
// every reconstruction fails fast. Each one fetches the stripe layout
// once, so the namenode's stripe-lookup count bounds the
// reconstructions the read ran.
func TestHedgedReadRunsOneReconstructionPerAttempt(t *testing.T) {
	code := testCodecs(t)[0]
	sys := startPersistentSystem(t, code, WithTelemetry(TelemetryConfig{}))
	cl, err := Dial(sys.NameAddr(), code, WithHedgedReads(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, blocks := writeRaided(t, sys, cl, 6)

	victim := blocks[0].Locations[0]
	if err := sys.Cluster().InjectBitRot(victim, blocks[0].ID, 5); err != nil {
		t.Fatal(err)
	}
	if err := sys.ThrottleDataNode(victim, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[1:3] {
		if err := sys.KillDataNode(b.Locations[0]); err != nil {
			t.Fatal(err)
		}
	}

	before := sys.Telemetry().Snapshot().Counters["serve_degraded_plans_total"]
	if _, err := cl.ReadFile("f"); err == nil {
		t.Fatal("read of a stripe past its tolerance succeeded")
	}
	lookups := sys.Telemetry().Snapshot().Counters["serve_degraded_plans_total"] - before
	if lookups > readAttempts {
		t.Fatalf("%d stripe lookups for %d read attempts: a hedged attempt ran more than one reconstruction", lookups, readAttempts)
	}
	if c := cl.Counters(); c.HedgedReads == 0 {
		t.Fatalf("throttled chain never armed the hedge: %+v", c)
	}
}
