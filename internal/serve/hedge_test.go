package serve

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ec"
	"repro/internal/testutil/leakcheck"
)

// TestHedgedReadOnThrottledDataNode pins the hedge engine's core
// claim, per codec: a datanode that is slow but alive costs one hedge
// delay, not an RPC timeout. The single replica of a raided block
// lands on a machine throttled far past the hedge delay; every read
// still returns byte-identical data, HedgedReads/HedgeWins move, and
// the throttled machine is never marked dead. Each codec runs twice,
// the second time (+partialsum) also dialled WithPartialSumRepair: the
// hedge's reconstruction must then be served by the fold tree.
func TestHedgedReadOnThrottledDataNode(t *testing.T) {
	type input struct {
		name       string
		code       ec.Code
		partialSum bool
	}
	var inputs []input
	for _, code := range testCodecs(t) {
		inputs = append(inputs, input{code.Name(), code, false}, input{code.Name() + "+partialsum", code, true})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			code := in.code
			opts := []ClientOption{WithHedgedReads(20 * time.Millisecond)}
			if in.partialSum {
				opts = append(opts, WithPartialSumRepair())
			}
			sys := startTestSystem(t, code)
			cl, err := Dial(sys.NameAddr(), code, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			rng := rand.New(rand.NewSource(2))
			data := make([]byte, 3*4096+77)
			rng.Read(data)
			if err := cl.WriteFile("f", data); err != nil {
				t.Fatal(err)
			}
			if err := cl.RaidFile("f"); err != nil {
				t.Fatal(err)
			}
			_, blocks, err := cl.fileBlocks("f")
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks[0].Locations) != 1 {
				t.Fatalf("raided block has %d replicas, want 1", len(blocks[0].Locations))
			}
			victim := blocks[0].Locations[0]
			if err := sys.ThrottleDataNode(victim, 250*time.Millisecond); err != nil {
				t.Fatal(err)
			}

			got, err := cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("hedged read returned mismatched bytes")
			}
			c := cl.Counters()
			if c.HedgedReads == 0 {
				t.Fatalf("throttled holder never triggered a hedge: %+v", c)
			}
			if c.HedgeWins == 0 {
				t.Fatalf("reconstruction never beat the throttled primary: %+v", c)
			}
			if c.DegradedBlocks == 0 {
				t.Fatalf("hedge wins were not counted as degraded serves: %+v", c)
			}
			if in.partialSum && c.PartialSumBlocks == 0 {
				t.Fatalf("hedged reconstruction bypassed the partial-sum pipeline: %+v", c)
			}
			if !sys.Cluster().MachineAlive(victim) {
				t.Fatalf("slow machine %d was marked dead", victim)
			}

			// Clearing the throttle restores the fast path: the same
			// bytes come straight off the replica again.
			if err := sys.ThrottleDataNode(victim, 0); err != nil {
				t.Fatal(err)
			}
			got, err = cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("post-throttle read returned mismatched bytes")
			}
		})
	}
}

// TestClientBlockCacheServesRepeatReads: with WithBlockCache, a reread
// is served from client memory — cache hits cover every block and no
// extra replica RPCs are issued, even when a holder has meanwhile been
// killed.
func TestClientBlockCacheServesRepeatReads(t *testing.T) {
	codes := testCodecs(t)
	sys := startTestSystem(t, codes[0])
	cl, err := Dial(sys.NameAddr(), codes[0], WithBlockCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 2*4096+9)
	rng.Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("first read mismatched")
	}
	c := cl.Counters()
	if c.CacheHits != 0 || c.CacheMisses != 3 {
		t.Fatalf("cold read counters %+v, want 0 hits / 3 misses", c)
	}

	// Kill the first block's only holder: the reread must not notice —
	// every block answers from the cache without a single datanode RPC.
	_, blocks, err := cl.fileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.KillDataNode(blocks[0].Locations[0]); err != nil {
		t.Fatal(err)
	}
	got, err = cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("cached reread mismatched")
	}
	c = cl.Counters()
	if c.CacheHits != 3 || c.CacheMisses != 3 {
		t.Fatalf("warm read counters %+v, want 3 hits / 3 misses", c)
	}
	if c.DegradedBlocks != 0 {
		t.Fatalf("cached reread took the degraded path: %+v", c)
	}
}

// TestLatencyAwareOrderingAvoidsSlowReplica: with replicated blocks
// and one throttled holder, the EWMA steers reads to the fast replicas
// once the slow one has been sampled — later reads stop paying the
// throttle.
func TestLatencyAwareOrderingAvoidsSlowReplica(t *testing.T) {
	leakcheck.Cleanup(t)
	codes := testCodecs(t)
	sys := startTestSystem(t, codes[0])
	cl, err := Dial(sys.NameAddr(), codes[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := make([]byte, 4096)
	rand.New(rand.NewSource(4)).Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	_, blocks, err := cl.fileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	victim := blocks[0].Locations[0]
	if err := sys.ThrottleDataNode(victim, 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Sample every replica (including the slow one), then time the
	// steady state: ordering must keep the throttled holder out of the
	// fast tier, so reads answer in microseconds, not 40ms.
	for i := 0; i < 6; i++ {
		if _, err := cl.ReadFile("f"); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := cl.ReadFile("f"); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*40*time.Millisecond/2 {
		t.Fatalf("steady-state reads took %v: ordering still visits the throttled replica", elapsed)
	}
}
