package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// phase is what one measurement window on one instance produced.
type phase struct {
	elapsed   time.Duration
	attempted int
	failed    int
	completed int // ops completed without error or mismatch
	errs      []string

	readMs, writeMs, raidMs, passMs []float64

	// degraded-read: helper bytes received, and the plan bytes of the
	// positions read under this codec and under RS(10,4).
	degradedReads          int
	fetchedBytes           int64
	planBytes, rsPlanBytes int64

	// node-repair: per-pass repaired blocks and network deltas, plus the
	// same over the first fixedCycles cycles (a seed-determined count).
	repairedBlocks       int
	repairedBytes        int64
	net                  cluster.Snapshot
	fixedRepaired        int
	fixedCross           int64
	sweepFiles           int
	counters             serve.Counters
	proc                 procStats
	spans                []span // the window's spans, traced runs only
	cacheHits, cacheMiss int64  // datanode cache
	// servedBytes is what the datanodes sent in answer to block reads
	// (dn.read and dn.partial) during the window.
	servedBytes int64
	// written names the files the window wrote and raided.
	written []string
}

// fixedCycles is how many repair cycles the seed-determined byte
// counts cover; a run always completes at least this many.
const fixedCycles = 32

// workerLog is one worker's private record, merged after the window.
type workerLog struct {
	attempted, failed, completed int
	errs                         []string
	readMs, writeMs, raidMs      []float64
	written                      []string
	degradedReads                int
	fetchedBytes                 int64
	planBytes, rsPlanBytes       int64
}

func (l *workerLog) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// measure runs the workload on the instance: a warm-up, then a window
// of the given length. Node-repair runs its own loop on one client.
func measure(in *instance, window time.Duration) *phase {
	if in.spec.repair {
		return measureRepair(in, window)
	}
	ph := &phase{}
	logs := make([]*workerLog, workers)
	var wg sync.WaitGroup
	var ready, startWindow sync.WaitGroup
	ready.Add(workers)
	startWindow.Add(1)
	var t0, deadline time.Time
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(in.seed*1000 + int64(w)))
			op := in.opFunc(w, rng)
			warm := &workerLog{}
			for i := 0; i < in.spec.warmupOps; i++ {
				op(warm)
			}
			ready.Done()
			startWindow.Wait()
			l := &workerLog{failed: warm.failed, attempted: warm.attempted, errs: warm.errs, written: warm.written}
			for time.Now().Before(deadline) {
				op(l)
			}
			logs[w] = l
		}(w)
	}
	ready.Wait()
	in.tr.reset()
	c0 := in.counters()
	hits0, miss0 := in.nodeCache()
	served0 := in.servedBytes()
	p0 := readProc()
	t0 = time.Now()
	deadline = t0.Add(window)
	stopHeap := sampleHeap()
	startWindow.Done()
	wg.Wait()
	ph.elapsed = time.Since(t0)
	ph.proc = readProc().since(p0, stopHeap())
	ph.spans = in.tr.snapshot()
	ph.counters = subCounters(in.counters(), c0)
	hits1, miss1 := in.nodeCache()
	ph.cacheHits, ph.cacheMiss = hits1-hits0, miss1-miss0
	ph.servedBytes = in.servedBytes() - served0
	for _, l := range logs {
		ph.attempted += l.attempted
		ph.failed += l.failed
		ph.completed += l.completed
		ph.errs = append(ph.errs, l.errs...)
		ph.readMs = append(ph.readMs, l.readMs...)
		ph.writeMs = append(ph.writeMs, l.writeMs...)
		ph.raidMs = append(ph.raidMs, l.raidMs...)
		ph.degradedReads += l.degradedReads
		ph.fetchedBytes += l.fetchedBytes
		ph.planBytes += l.planBytes
		ph.rsPlanBytes += l.rsPlanBytes
		ph.written = append(ph.written, l.written...)
	}
	if len(ph.written) > 0 {
		in.sweepWritten(ph)
	}
	return ph
}

// nodeCache reads the datanode cache counters.
func (in *instance) nodeCache() (hits, misses int64) {
	return in.reg.Counter("hdfs_node_cache_hits_total").Value(), in.reg.Counter("hdfs_node_cache_misses_total").Value()
}

// servedBytes is the payload the datanodes have sent in answer to
// block reads, whole (dn.read) or folded (dn.partial).
func (in *instance) servedBytes() int64 {
	var n int64
	for _, method := range []string{"dn.read", "dn.partial"} {
		n += in.reg.Counter(`rpc_response_bytes_total{role="datanode",method="` + method + `"}`).Value()
	}
	return n
}

// sweepWritten reads back every file the window wrote, after the window
// and with the machine holding the first one's first block crashed.
// Every file must match what was written byte for byte, and the files
// with a block on that machine are rebuilt from their parity, so a
// write or a raid that stored wrong data or wrong parity fails here.
func (in *instance) sweepWritten(ph *phase) {
	fail := func(format string, args ...any) {
		ph.failed++
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
		}
	}
	_, blocks, err := in.sys.Cluster().FileBlocks(ph.written[0])
	if err != nil || len(blocks) == 0 || len(blocks[0].Locations) == 0 {
		ph.attempted++
		fail("sweep: no located first block of %s: %v", ph.written[0], err)
		return
	}
	victim := blocks[0].Locations[0]
	if err := in.sys.KillDataNode(victim); err != nil {
		ph.attempted++
		fail("sweep: kill %d: %v", victim, err)
		return
	}
	cl := in.clients[0]
	before := cl.Counters()
	for _, name := range ph.written {
		ph.attempted++
		data, err := cl.ReadFile(name)
		switch {
		case err != nil:
			fail("sweep read %s: %v", name, err)
		case !bytes.Equal(data, content(in.seed, name)):
			fail("sweep read %s: bytes differ from what was written", name)
		default:
			ph.sweepFiles++
		}
	}
	ph.attempted++
	if cl.Counters().DegradedBlocks == before.DegradedBlocks {
		fail("sweep: no written file was rebuilt from parity with machine %d crashed", victim)
	}
	if err := in.sys.RestartDataNode(victim); err != nil {
		fail("sweep: restart %d: %v", victim, err)
	}
}

// opFunc returns worker w's operation: one closed-loop step that
// records its latency and outcome in the log.
func (in *instance) opFunc(w int, rng *rand.Rand) func(*workerLog) {
	cl := in.clients[w]
	pick := func() string { return in.files[rng.Intn(len(in.files))] }
	if in.spec.zipfS > 1 {
		z := rand.NewZipf(rng, in.spec.zipfS, 1, uint64(len(in.files)-1))
		pick = func() string { return in.files[z.Uint64()] }
	}
	if in.spec.kill {
		pick = func() string { return in.readSet[rng.Intn(len(in.readSet))] }
	}
	seq := 0
	return func(l *workerLog) {
		l.attempted++
		if in.spec.writeFrac > 0 && rng.Float64() < in.spec.writeFrac {
			name := fmt.Sprintf("w%d-%06d", w, seq)
			seq++
			data := content(in.seed, name)
			id, ts := in.tr.beginOp(w, kindWrite)
			begin := time.Now()
			err := cl.WriteFile(name, data)
			t1 := time.Now()
			in.tr.endOp(w, id, spanWrite, ts, err)
			if err != nil {
				l.fail("write %s: %v", name, err)
				return
			}
			id, ts = in.tr.beginOp(w, kindRaid)
			err = cl.RaidFile(name)
			t2 := time.Now()
			in.tr.endOp(w, id, spanRaid, ts, err)
			if err != nil {
				l.fail("raid %s: %v", name, err)
				return
			}
			l.written = append(l.written, name)
			l.writeMs = append(l.writeMs, ms(t1.Sub(begin)))
			l.raidMs = append(l.raidMs, ms(t2.Sub(t1)))
			l.completed++
			return
		}
		name := pick()
		before := cl.Counters()
		id, ts := in.tr.beginOp(w, kindRead)
		begin := time.Now()
		data, err := cl.ReadFile(name)
		d := time.Since(begin)
		in.tr.endOp(w, id, spanRead, ts, err)
		if err != nil {
			l.fail("read %s: %v", name, err)
			return
		}
		if !bytes.Equal(data, in.want[name]) {
			l.fail("read %s: %d bytes differ from what was written", name, len(data))
			return
		}
		if in.spec.kill {
			after := cl.Counters()
			deg := after.DegradedBlocks - before.DegradedBlocks
			got := after.DegradedBytesFetched - before.DegradedBytesFetched
			want := in.plan[name]
			if deg != 1 || got != want {
				l.fail("read %s: %d blocks reconstructed with %d helper bytes, want 1 with %d", name, deg, got, want)
				return
			}
			l.degradedReads++
			l.fetchedBytes += got
			l.planBytes += want
			l.rsPlanBytes += in.rsPlan[name]
		}
		l.readMs = append(l.readMs, ms(d))
		l.completed++
	}
}

// measureRepair runs node-repair cycles: crash a machine from a seeded
// rotation, drive one fixer pass over the wire, check health, restart.
// The window closes after `window` but never before fixedCycles.
func measureRepair(in *instance, window time.Duration) *phase {
	ph := &phase{}
	cl := in.clients[0]
	meta := in.sys.Cluster()
	rotation := rand.New(rand.NewSource(in.seed)).Perm(meta.Machines())
	cycle := 0
	runCycle := func(record bool) error {
		victim := rotation[cycle%len(rotation)]
		cycle++
		if err := in.sys.KillDataNode(victim); err != nil {
			return fmt.Errorf("kill %d: %w", victim, err)
		}
		n0 := meta.Network().Snapshot()
		id, ts := in.tr.beginOp(0, kindFixer)
		begin := time.Now()
		rep, err := cl.RunBlockFixer()
		d := time.Since(begin)
		in.tr.endOp(0, id, spanFixer, ts, err)
		if err != nil {
			return fmt.Errorf("fixer pass after crashing %d: %w", victim, err)
		}
		n1 := meta.Network().Snapshot()
		if rep.Unrecoverable != 0 {
			return fmt.Errorf("fixer pass after crashing %d: %d blocks unrecoverable", victim, rep.Unrecoverable)
		}
		if h := meta.Health(); h.MissingStriped != 0 || h.DegradedStripes != 0 || h.LostReplicated != 0 {
			return fmt.Errorf("health after pass for machine %d: %+v", victim, h)
		}
		if err := in.sys.RestartDataNode(victim); err != nil {
			return fmt.Errorf("restart %d: %w", victim, err)
		}
		if !record {
			return nil
		}
		ph.passMs = append(ph.passMs, ms(d))
		ph.repairedBlocks += rep.RepairedStriped
		ph.net.CrossRackBytes += n1.CrossRackBytes - n0.CrossRackBytes
		ph.net.IntraRackBytes += n1.IntraRackBytes - n0.IntraRackBytes
		if len(ph.passMs) <= fixedCycles {
			ph.fixedRepaired += rep.RepairedStriped
			ph.fixedCross += n1.CrossRackBytes - n0.CrossRackBytes
		}
		return nil
	}
	fail := func(err error) {
		ph.failed++
		if len(ph.errs) < 5 {
			ph.errs = append(ph.errs, err.Error())
		}
	}
	for i := 0; i < in.spec.warmupOps; i++ {
		ph.attempted++
		if err := runCycle(false); err != nil {
			fail(err)
			return ph
		}
	}
	// The rotation restarts at the window, so the byte counts of the
	// first fixedCycles cycles depend on the seed alone.
	cycle = 0
	in.tr.reset()
	p0 := readProc()
	stopHeap := sampleHeap()
	t0 := time.Now()
	for time.Since(t0) < window || len(ph.passMs) < fixedCycles {
		ph.attempted++
		if err := runCycle(true); err != nil {
			fail(err)
			break
		}
		ph.completed++
	}
	ph.elapsed = time.Since(t0)
	ph.proc = readProc().since(p0, stopHeap())
	ph.spans = in.tr.snapshot()
	ph.repairedBytes = int64(ph.repairedBlocks) * blockSize
	// Every cycle repaired and restarted; the whole working set must
	// still read back byte for byte.
	for _, name := range in.files {
		ph.attempted++
		data, err := cl.ReadFile(name)
		switch {
		case err != nil:
			fail(fmt.Errorf("sweep read %s: %w", name, err))
		case !bytes.Equal(data, in.want[name]):
			fail(fmt.Errorf("sweep read %s: bytes differ from what was written", name))
		default:
			ph.sweepFiles++
		}
	}
	return ph
}

func subCounters(a, b serve.Counters) serve.Counters {
	return serve.Counters{
		Reads:                a.Reads - b.Reads,
		Writes:               a.Writes - b.Writes,
		BlocksRead:           a.BlocksRead - b.BlocksRead,
		DegradedBlocks:       a.DegradedBlocks - b.DegradedBlocks,
		PartialSumBlocks:     a.PartialSumBlocks - b.PartialSumBlocks,
		DegradedBytesFetched: a.DegradedBytesFetched - b.DegradedBytesFetched,
		CorruptReplicas:      a.CorruptReplicas - b.CorruptReplicas,
		CacheHits:            a.CacheHits - b.CacheHits,
		CacheMisses:          a.CacheMisses - b.CacheMisses,
		HedgedReads:          a.HedgedReads - b.HedgedReads,
		HedgeWins:            a.HedgeWins - b.HedgeWins,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
