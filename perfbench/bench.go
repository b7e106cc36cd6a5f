package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/extent"
	"repro/internal/hdfs"
	"repro/internal/rs"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Settings shared by every workload: the paper's code, 64 KiB blocks,
// full 10-block stripes, and one rack per stripe position plus two.
const (
	blockSize   = int64(64 << 10)
	dataBlocks  = 10
	fileBytes   = dataBlocks * blockSize
	racks       = 16
	perRack     = 2
	replication = 3
	workers     = 2
	fsyncPolicy = extent.FsyncNever

	// procs is the benchmark's GOMAXPROCS. On a shared 2-vCPU host whose
	// steal time comes and goes, runs at GOMAXPROCS=2 swung by 2.5x in
	// throughput from one run to the next, while runs at 1 held within
	// a tenth: one runnable thread rarely waits for a stolen vCPU.
	procs = 1
	// placementSeed seeds the cluster's block placement. It is the same
	// on every run, so every run measures the same layout; --seed picks
	// file contents, op choices and the crash rotation. With placement
	// drawn from --seed, which files had a block on hot-skew's slow
	// machine, and so how many reads wait out the hedge delay, changed
	// from seed to seed, and throughput with it.
	placementSeed = 1
	// repairParallelism keeps the fixer's engine running stripe repairs
	// concurrently even though they share one processor.
	repairParallelism = 2
)

// spec describes one workload: its working set, the client and
// datanode features it turns on, and the failure it injects at set-up.
type spec struct {
	name        string
	files       int
	clientCache int64         // per-client block cache bytes (0 = off)
	nodeCache   int64         // per-datanode cache bytes (0 = off)
	hedgeDelay  time.Duration // fixed hedge delay (0 = hedging off)
	throttle    time.Duration // delay on the hottest file's first holder
	writeFrac   float64       // share of ops that write + raid a fresh file
	zipfS       float64       // > 1: Zipf read popularity
	kill        bool          // crash the machine holding the most data blocks
	repair      bool          // crash / fixer pass / restart cycles
	warmupOps   int           // per-worker ops before the window opens
	// tailQ is the percentile op_tail_ms reports. It must not sit on the
	// edge between two modes of the latency distribution: p99 in
	// hot-skew, where every read that needs the slow machine waits out
	// the hedge delay and p90 fell between fast and hedged reads; p90
	// elsewhere.
	tailQ float64
}

// writeFraction is healthy-rw's share of write + raid ops: the default
// of the repository's load generator (serve.LoadConfig.WriteFraction).
const writeFraction = 0.1

var specs = []*spec{
	{
		name:      "healthy-rw",
		files:     48,
		writeFrac: writeFraction,
		warmupOps: 20,
		tailQ:     0.9,
	},
	{
		name:      "degraded-read",
		files:     128,
		kill:      true,
		warmupOps: 20,
		tailQ:     0.9,
	},
	{
		name:      "node-repair",
		files:     64,
		repair:    true,
		warmupOps: 4,
		tailQ:     0.9,
	},
	{
		name:        "hot-skew",
		files:       128,
		clientCache: 8 << 20,
		nodeCache:   2 << 20,
		hedgeDelay:  20 * time.Millisecond,
		throttle:    150 * time.Millisecond,
		zipfS:       1.01,
		warmupOps:   300,
		tailQ:       0.99,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newCode returns the benchmark's codec, Piggybacked-RS(10,4).
func newCode() (ec.Code, error) { return core.New(dataBlocks, 4) }

// content generates a file's payload from the seed and its name.
func content(seed int64, name string) []byte {
	rng := rand.New(rand.NewSource(seed ^ int64(crc32.ChecksumIEEE([]byte(name)))))
	buf := make([]byte, fileBytes)
	rng.Read(buf)
	return buf
}

// instance is one running cluster with its preloaded working set.
type instance struct {
	spec    *spec
	seed    int64
	code    ec.Code // the plain codec
	dir     string
	sys     *serve.System
	clients []*serve.Client
	tr      *tracer             // nil when untraced
	reg     *telemetry.Registry // the system's counters

	files []string
	want  map[string][]byte

	// victim is the crashed (degraded-read) or throttled (hot-skew)
	// machine, -1 when none; readSet are the files a degraded-read
	// worker picks from, with the stripe position each reconstructs.
	victim  int
	readSet []string

	// plan and rsPlan are the repair-plan bytes of each read-set file's
	// lost position under the benchmark's codec and under RS(10,4),
	// computed through the public ec API.
	plan, rsPlan map[string]int64

	storeMu sync.Mutex
	stores  map[int]hdfs.BlockStore // latest store per machine
}

// start brings up a cluster under root, preloads and raids the
// working set, and injects the workload's failure.
func start(root string, sp *spec, seed int64, tr *tracer) (*instance, error) {
	code, err := newCode()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "data-")
	if err != nil {
		return nil, err
	}
	in := &instance{spec: sp, seed: seed, code: code, dir: dir, tr: tr, victim: -1,
		stores: make(map[int]hdfs.BlockStore)}
	cfg := hdfs.Config{
		Topology:          cluster.Topology{Racks: racks, MachinesPerRack: perRack},
		Code:              wrapCode(code, tr, -1),
		BlockSize:         blockSize,
		Replication:       replication,
		Seed:              placementSeed,
		RepairParallelism: repairParallelism,
		NodeCacheBytes:    sp.nodeCache,
		StoreFactory:      in.recordStores(wrapStoreFactory(hdfs.ExtentStoreFactory(dir, extent.Options{Fsync: fsyncPolicy}), tr)),
	}
	// Both the traced and the untraced cluster keep the system's own
	// counters: the bytes datanodes serve and the datanode cache's hits.
	in.sys, err = serve.Start(cfg, serve.WithTelemetry(serve.TelemetryConfig{}))
	if err != nil {
		in.close()
		return nil, fmt.Errorf("start system: %w", err)
	}
	in.reg = in.sys.Telemetry()
	for w := 0; w < workers; w++ {
		var opts []serve.ClientOption
		if sp.clientCache > 0 {
			opts = append(opts, serve.WithBlockCache(sp.clientCache))
		}
		if sp.hedgeDelay > 0 {
			opts = append(opts, serve.WithHedgedReads(sp.hedgeDelay))
		}
		cl, err := serve.Dial(in.sys.NameAddr(), wrapCode(code, tr, w), opts...)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		in.clients = append(in.clients, cl)
	}
	if err := in.preload(); err != nil {
		in.close()
		return nil, err
	}
	if err := in.inject(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// recordStores keeps the latest store each machine's factory built, so
// the run can read extent.Stats at its end.
func (in *instance) recordStores(f func(int) (hdfs.BlockStore, error)) func(int) (hdfs.BlockStore, error) {
	return func(machine int) (hdfs.BlockStore, error) {
		st, err := f(machine)
		if err == nil {
			in.storeMu.Lock()
			in.stores[machine] = st
			in.storeMu.Unlock()
		}
		return st, err
	}
}

// preload writes and raids the working set in name order through one
// client, so the placement a seed produces is the same on every run.
func (in *instance) preload() error {
	in.want = make(map[string][]byte, in.spec.files)
	cl := in.clients[0]
	for i := 0; i < in.spec.files; i++ {
		name := fmt.Sprintf("ws-%03d", i)
		in.files = append(in.files, name)
		in.want[name] = content(in.seed, name)
		if err := cl.WriteFile(name, in.want[name]); err != nil {
			return fmt.Errorf("preload write %s: %w", name, err)
		}
		if err := cl.RaidFile(name); err != nil {
			return fmt.Errorf("preload raid %s: %w", name, err)
		}
	}
	return nil
}

// inject applies the workload's set-up failure: crash the machine that
// holds the most working-set data blocks (degraded-read), or throttle
// the holder of the hottest file's first block (hot-skew).
func (in *instance) inject() error {
	meta := in.sys.Cluster()
	switch {
	case in.spec.kill:
		perMachine := make(map[int][]string)
		pos := make(map[string]map[int]int) // file -> machine -> stripe position
		for _, name := range in.files {
			_, blocks, err := meta.FileBlocks(name)
			if err != nil {
				return err
			}
			pos[name] = make(map[int]int)
			for _, b := range blocks {
				for _, m := range b.Locations {
					perMachine[m] = append(perMachine[m], name)
					pos[name][m] = b.StripePos
				}
			}
		}
		victim := -1
		for m := 0; m < meta.Machines(); m++ {
			if victim < 0 || len(perMachine[m]) > len(perMachine[victim]) {
				victim = m
			}
		}
		in.victim = victim
		ref, err := rs.New(dataBlocks, 4)
		if err != nil {
			return err
		}
		in.plan, in.rsPlan = make(map[string]int64), make(map[string]int64)
		for _, name := range perMachine[victim] {
			if _, dup := in.plan[name]; dup {
				return fmt.Errorf("file %s has two blocks on machine %d", name, victim)
			}
			p := pos[name][victim]
			if in.plan[name], err = planBytes(in.code, p); err != nil {
				return err
			}
			if in.rsPlan[name], err = planBytes(ref, p); err != nil {
				return err
			}
			in.readSet = append(in.readSet, name)
		}
		sort.Strings(in.readSet)
		return in.sys.KillDataNode(victim)
	case in.spec.throttle > 0:
		_, blocks, err := meta.FileBlocks(in.files[0])
		if err != nil {
			return err
		}
		if len(blocks) == 0 || len(blocks[0].Locations) == 0 {
			return fmt.Errorf("hot file %s has no located first block", in.files[0])
		}
		in.victim = blocks[0].Locations[0]
		return in.sys.ThrottleDataNode(in.victim, in.spec.throttle)
	}
	return nil
}

// planBytes is what repairing stripe position pos downloads when
// every other position is alive.
func planBytes(code ec.Code, pos int) (int64, error) {
	plan, err := code.PlanRepair(pos, blockSize, ec.AllAliveExcept(pos))
	if err != nil {
		return 0, fmt.Errorf("plan repair of position %d under %s: %w", pos, code.Name(), err)
	}
	return plan.TotalBytes(), nil
}

// extentStats sums extent.Stats over every machine's latest store.
func (in *instance) extentStats() extent.Stats {
	in.storeMu.Lock()
	defer in.storeMu.Unlock()
	var sum extent.Stats
	for _, st := range in.stores {
		if x := extentOf(st); x != nil {
			s := x.Stats()
			sum.Segments += s.Segments
			sum.LiveBlocks += s.LiveBlocks
			sum.LiveBytes += s.LiveBytes
			sum.DiskBytes += s.DiskBytes
			sum.GarbageBytes += s.GarbageBytes
		}
	}
	return sum
}

// counters sums the clients' counters.
func (in *instance) counters() serve.Counters {
	var sum serve.Counters
	for _, cl := range in.clients {
		c := cl.Counters()
		sum.Reads += c.Reads
		sum.Writes += c.Writes
		sum.BlocksRead += c.BlocksRead
		sum.DegradedBlocks += c.DegradedBlocks
		sum.PartialSumBlocks += c.PartialSumBlocks
		sum.DegradedBytesFetched += c.DegradedBytesFetched
		sum.CorruptReplicas += c.CorruptReplicas
		sum.CacheHits += c.CacheHits
		sum.CacheMisses += c.CacheMisses
		sum.HedgedReads += c.HedgedReads
		sum.HedgeWins += c.HedgeWins
	}
	return sum
}

// close stops the clients and the system and removes the data dir.
func (in *instance) close() {
	for _, cl := range in.clients {
		cl.Close()
	}
	if in.sys != nil {
		in.sys.Close()
	}
	os.RemoveAll(in.dir)
}

// setupRepeats is how many times a run sets a cluster up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 3

// setupTimed sets a cluster up setupRepeats times and returns the
// last instance with every set-up duration in seconds.
func setupTimed(root string, sp *spec, seed int64) (*instance, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		in, err := start(root, sp, seed, nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			return in, times, nil
		}
		in.close()
	}
}
