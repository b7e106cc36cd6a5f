package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ec"
	"repro/internal/extent"
	"repro/internal/hdfs"
)

// plainCode hides every optional interface of the codec it embeds.
type plainCode struct{ ec.Code }

func TestCodeWrapperKeepsOptionalInterfaces(t *testing.T) {
	code, err := newCode()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1)
	if _, ok := wrapCode(code, tr, 0).(ec.LinearRepairPlanner); !ok {
		t.Error("wrapped Piggybacked-RS lost ec.LinearRepairPlanner")
	}
	if _, ok := wrapCode(plainCode{code}, tr, 0).(ec.LinearRepairPlanner); ok {
		t.Error("wrapper added ec.LinearRepairPlanner to a codec without it")
	}
	if wrapCode(code, nil, 0) != code {
		t.Error("untraced wrapCode must return the codec itself")
	}
}

func TestCodeWrapperIsTransparent(t *testing.T) {
	code, err := newCode()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1)
	wrapped := wrapCode(code, tr, 0)
	const shard = 1024
	shards := func() [][]byte {
		s := make([][]byte, code.TotalShards())
		for i := 0; i < code.DataShards(); i++ {
			s[i] = bytes.Repeat([]byte{byte(7*i + 1)}, shard)
		}
		return s
	}
	want, got := shards(), shards()
	if err := code.Encode(want); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.Encode(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("shard %d differs after wrapped Encode", i)
		}
	}
	fetch := func(req ec.ReadRequest) ([]byte, error) {
		return want[req.Shard][req.Offset : req.Offset+req.Length], nil
	}
	var plainCalls, wrappedCalls int
	plainOut, err := code.ExecuteRepair(3, shard, ec.AllAliveExcept(3), func(r ec.ReadRequest) ([]byte, error) {
		plainCalls++
		return fetch(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.beginOp(0, kindRead)
	wrappedOut, err := wrapped.ExecuteRepair(3, shard, ec.AllAliveExcept(3), func(r ec.ReadRequest) ([]byte, error) {
		wrappedCalls++
		return fetch(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainOut, wrappedOut) || !bytes.Equal(wrappedOut, want[3]) {
		t.Fatal("wrapped ExecuteRepair returned different bytes")
	}
	if plainCalls != wrappedCalls {
		t.Fatalf("fetch calls: plain %d, wrapped %d", plainCalls, wrappedCalls)
	}
	var repairs, fetches int
	var repairID uint64
	for _, s := range tr.snapshot() {
		switch s.Name {
		case spanRepair:
			repairs++
			repairID = s.ID
		case spanFetch:
			fetches++
		}
	}
	for _, s := range tr.snapshot() {
		if s.Name == spanFetch && s.Parent != repairID {
			t.Errorf("fetch span parent %d, want repair span %d", s.Parent, repairID)
		}
	}
	if repairs != 1 || fetches != wrappedCalls {
		t.Fatalf("spans: %d repairs, %d fetches; want 1 and %d", repairs, fetches, wrappedCalls)
	}
}

func TestStoreWrapperIsTransparent(t *testing.T) {
	factory := hdfs.ExtentStoreFactory(t.TempDir(), extent.Options{Fsync: fsyncPolicy})
	tr := newTracer(1)
	st, err := wrapStoreFactory(factory, tr)(0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	data := bytes.Repeat([]byte("perfbench"), 1000)
	if err := st.Put(5, data); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(5)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after Put: %v, equal=%v", err, bytes.Equal(got, data))
	}
	if !st.Has(5) || st.StoredBytes() != int64(len(data)) {
		t.Fatalf("Has=%v StoredBytes=%d", st.Has(5), st.StoredBytes())
	}
	x := extentOf(st)
	if x == nil || x.Stats().LiveBlocks != 1 {
		t.Fatal("wrapped store does not expose its extent store")
	}
	if err := st.Delete(5); err != nil {
		t.Fatal(err)
	}
	if st.Has(5) {
		t.Fatal("block survived Delete")
	}
	names := map[string]int{}
	for _, s := range tr.snapshot() {
		names[s.Name]++
	}
	if names[spanStorePut] != 1 || names[spanStoreGet] != 1 || names[spanStoreDelete] != 1 {
		t.Fatalf("store spans %v", names)
	}
}

// TestWrappedClientCountsMatch reads the same degraded file through a
// plain client and a traced one: same bytes, same counter deltas, and
// the datanodes serve nine whole blocks plus the repair plan's bytes.
func TestWrappedClientCountsMatch(t *testing.T) {
	sp, err := specByName("degraded-read")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(workers)
	in, err := start(t.TempDir(), sp, 3, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	plain, err := start(t.TempDir(), sp, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	name := in.readSet[0]
	for _, inst := range []*instance{in, plain} {
		cl := inst.clients[0]
		before, served := cl.Counters(), inst.servedBytes()
		data, err := cl.ReadFile(name)
		if err != nil || !bytes.Equal(data, inst.want[name]) {
			t.Fatalf("read %s: %v", name, err)
		}
		d := subCounters(cl.Counters(), before)
		if d.DegradedBlocks != 1 || d.DegradedBytesFetched != inst.plan[name] || d.BlocksRead != dataBlocks {
			t.Fatalf("counter deltas %+v, plan bytes %d", d, inst.plan[name])
		}
		if got, want := inst.servedBytes()-served, (dataBlocks-1)*blockSize+inst.plan[name]; got != want {
			t.Fatalf("datanodes served %d bytes, want %d", got, want)
		}
	}
}

// TestSweepWrittenCatchesWrongBytes writes one file with the bytes the
// sweep expects and one with other bytes: the sweep passes the first,
// rebuilds at least one block from parity, and fails the second.
func TestSweepWrittenCatchesWrongBytes(t *testing.T) {
	sp, err := specByName("healthy-rw")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	in, err := start(t.TempDir(), sp, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	cl := in.clients[0]
	for name, data := range map[string][]byte{"good": content(seed, "good"), "bad": content(seed+1, "bad")} {
		if err := cl.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		if err := cl.RaidFile(name); err != nil {
			t.Fatal(err)
		}
	}
	ph := &phase{written: []string{"good", "bad"}}
	in.sweepWritten(ph)
	if ph.sweepFiles != 1 || ph.failed != 1 || ph.attempted != 3 {
		t.Fatalf("sweep: %d verified, %d of %d failed: %v", ph.sweepFiles, ph.failed, ph.attempted, ph.errs)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first
		{Start: 35, End: 38},  // inside the second
		{Start: 90, End: 120}, // runs past the parent
		{Start: -5, End: 5},   // starts before it
	}
	// Covered: [0,5) + [10,40) + [90,100) = 45.
	if got := selfTime(parent, children); got != 55 {
		t.Fatalf("selfTime = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
	if got := unionWithin([]interval{{200, 300}}, 0, 100); got != 0 {
		t.Fatalf("union outside the window = %d, want 0", got)
	}
}

func TestLayerTableSumsToMean(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: spanRead, Start: 0, End: 100, Worker: 0},
		{ID: 2, Parent: 1, Op: 1, Name: spanRepair, Start: 10, End: 80, Worker: 0},
		{ID: 3, Parent: 2, Op: 1, Name: spanFetch, Start: 15, End: 40, Worker: 0},
		{ID: 4, Parent: 2, Op: 1, Name: spanFetch, Start: 30, End: 50, Worker: 0},
		{ID: 5, Op: 5, Name: spanRead, Start: 200, End: 260, Worker: 1},
	}
	tab := readTable(indexSpans(spans))
	var sum float64
	for _, r := range tab.rows {
		if r.within == "" {
			sum += r.ms
		}
	}
	if diff := sum - tab.meanMs; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("layers sum to %v, mean %v", sum, tab.meanMs)
	}
	// Read 1: self 30, decode 35, fetch 35 (ns); read 2: self 60.
	if tab.rows[0].ms != 45e-6 || tab.rows[1].ms != 17.5e-6 || tab.rows[2].ms != 17.5e-6 {
		t.Fatalf("rows %+v", tab.rows)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got metricSet, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	g := make([]string, 0, len(got))
	for n := range got {
		g = append(g, n)
	}
	sort.Strings(g)
	if !slices.Equal(g, w) {
		t.Fatalf("%s metrics %v, want %v", what, g, w)
	}
}

// TestTinyRuns runs every workload briefly, untraced and traced: no
// failures, and exactly the metrics BENCHMARK.json names.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live clusters")
	}
	e2e, layers := benchmarkNames(t)
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			root := t.TempDir()
			res, err := runPlain(sp, 7, 300*time.Millisecond, root)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("plain run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			sameNames(t, "end-to-end", res.Metrics, e2e)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}
			res, err = runTraced(sp, 7, 600*time.Millisecond, root, root)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			sameNames(t, "per-layer", res.Metrics, layers)
		})
	}
}
