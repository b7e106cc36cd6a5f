// Command perfbench is the repository's benchmark. It runs one named
// workload against a live serve.System — namenode and datanode daemons
// on loopback TCP, every datanode on the persistent extent store — from
// a single process, checks every read byte for byte, and prints its
// metrics. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it runs the workload untraced and then traced, and breaks
// each end-to-end number into per-layer numbers.
//
//	perfbench --workload degraded-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, n: n}
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// envelope records what the numbers were measured on.
type envelope struct {
	Benchmark  string `json:"benchmark"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"git_commit"`
	Codec      string `json:"codec"`
	BlockBytes int64  `json:"block_bytes"`
	FileBytes  int64  `json:"file_bytes"`
	Files      int    `json:"files"`
	Racks      int    `json:"racks"`
	PerRack    int    `json:"machines_per_rack"`
	Workers    int    `json:"workers"`
	Fsync      string `json:"fsync_policy"`
	DataFS     string `json:"data_dir_fs"`
}

func main() {
	workload := flag.String("workload", "", "workload name: healthy-rw, degraded-read, node-repair or hot-skew")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from an untraced and a traced run")
	root := flag.String("root", ".bench_build", "directory for data and span files")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if err := run(*workload, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, root string) error {
	sp, err := specByName(workload)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	dataRoot := filepath.Join(root, "perfbench-data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return err
	}
	code, err := newCode()
	if err != nil {
		return err
	}
	env := envelope{
		Benchmark: "perfbench", Workload: sp.name, Seed: seed, Seconds: seconds, Trace: traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit(), Codec: code.Name(), BlockBytes: blockSize, FileBytes: fileBytes,
		Files: sp.files, Racks: racks, PerRack: perRack, Workers: workers,
		Fsync: fsyncPolicy.String(), DataFS: fsName(dataRoot),
	}
	line, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("envelope %s\n", line)

	var res *result
	if traced {
		res, err = runTraced(sp, seed, time.Duration(seconds)*time.Second, root, dataRoot)
	} else {
		res, err = runPlain(sp, seed, time.Duration(seconds)*time.Second, dataRoot)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(sp *spec, seed int64, window time.Duration, dataRoot string) (*result, error) {
	in, setups, err := setupTimed(dataRoot, sp, seed)
	if err != nil {
		return nil, err
	}
	defer in.close()
	ph := measure(in, window)
	m := endToEnd(sp, ph, setups)
	printPhase(sp, ph)
	printMetrics("end-to-end", m)
	return finish(ph, m), nil
}

// runTraced measures the workload untraced and then traced for half
// the window each, on two fresh clusters, and reports per-layer
// metrics: span-based ones from the traced half, counter-based ones
// from the untraced half.
func runTraced(sp *spec, seed int64, window time.Duration, root, dataRoot string) (*result, error) {
	half := window / 2
	plain, err := start(dataRoot, sp, seed, nil)
	if err != nil {
		return nil, err
	}
	a := measure(plain, half)
	stats := plain.extentStats()
	plain.close()
	tr := newTracer(workers)
	in, err := start(dataRoot, sp, seed, tr)
	if err != nil {
		return nil, err
	}
	b := measure(in, half)
	in.close()
	traceDir := filepath.Join(root, "perfbench-traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
	if err := writeJSONLines(spanFile, b.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans %s (%d)\n", spanFile, len(b.spans))
	m, tables := perLayer(sp, a, b, stats)
	fmt.Printf("traced layer tables (%s):\n", sp.name)
	for _, t := range tables {
		t.print(os.Stdout)
	}
	printMetrics("per-layer", m)
	merged := *a
	merged.attempted += b.attempted
	merged.failed += b.failed
	merged.errs = append(merged.errs, b.errs...)
	return finish(&merged, m), nil
}

func finish(ph *phase, m metricSet) *result {
	for _, e := range ph.errs {
		fmt.Println("failure:", e)
	}
	fmt.Printf("failed_ops_frac %.6f (%d of %d)\n", ratio(float64(ph.failed), float64(ph.attempted)), ph.failed, ph.attempted)
	return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}
}

// primaryLatency returns the latencies of the workload's main op.
func primaryLatency(sp *spec, ph *phase) []float64 {
	if sp.repair {
		return ph.passMs
	}
	return ph.readMs
}

// netBytesPerBlock is the network bytes behind each block the workload
// delivers: for reads, the bytes the datanodes served (dn.read and
// dn.partial, from the system's telemetry) per block the clients read;
// for node-repair, the cross-rack bytes per repaired block over the
// seed-determined first cycles.
func netBytesPerBlock(sp *spec, ph *phase) (float64, int) {
	if sp.repair {
		return ratio(float64(ph.fixedCross), float64(ph.fixedRepaired)), ph.fixedRepaired
	}
	return ratio(float64(ph.servedBytes), float64(ph.counters.BlocksRead)), int(ph.counters.BlocksRead)
}

func endToEnd(sp *spec, ph *phase, setups []float64) metricSet {
	m := metricSet{}
	lat := primaryLatency(sp, ph)
	m.set("setup_s", median(setups), "s", len(setups))
	m.set("ops_per_s", ratio(float64(ph.completed), ph.elapsed.Seconds()), "1/s", ph.completed)
	m.set("op_p50_ms", percentile(lat, 0.5), "ms", len(lat))
	m.set("op_tail_ms", percentile(lat, sp.tailQ), "ms", len(lat))
	v, n := netBytesPerBlock(sp, ph)
	m.set("net_bytes_per_block", v, "B", n)
	return m
}

// printPhase prints the workload's own named figures, which the JSON
// folds into the generic metrics above.
func printPhase(sp *spec, ph *phase) {
	fmt.Printf("workload %s: %d ops in %.2fs\n", sp.name, ph.completed, ph.elapsed.Seconds())
	line := func(name string, v float64, unit string, n int) {
		fmt.Printf("  %-36s %14.4f %-5s n=%d\n", name, v, unit, n)
	}
	switch {
	case sp.repair:
		secs := 0.0
		for _, p := range ph.passMs {
			secs += p / 1e3
		}
		line("node_repair_p50_ms", percentile(ph.passMs, 0.5), "ms", len(ph.passMs))
		line("node_repair_p90_ms", percentile(ph.passMs, 0.9), "ms", len(ph.passMs))
		line("repair_mb_per_s", ratio(float64(ph.repairedBytes)/1e6, secs), "MB/s", len(ph.passMs))
		line("repair_cross_rack_bytes_per_block", ratio(float64(ph.fixedCross), float64(ph.fixedRepaired)), "B", ph.fixedRepaired)
		line("repaired_blocks_per_pass", ratio(float64(ph.repairedBlocks), float64(len(ph.passMs))), "count", len(ph.passMs))
		line("sweep_files_verified", float64(ph.sweepFiles), "count", ph.sweepFiles)
	default:
		line("read_p50_ms", percentile(ph.readMs, 0.5), "ms", len(ph.readMs))
		line("read_p99_ms", percentile(ph.readMs, 0.99), "ms", len(ph.readMs))
	}
	if len(ph.writeMs) > 0 {
		line("write_p50_ms", percentile(ph.writeMs, 0.5), "ms", len(ph.writeMs))
		line("write_p90_ms", percentile(ph.writeMs, 0.9), "ms", len(ph.writeMs))
		line("raid_p50_ms", percentile(ph.raidMs, 0.5), "ms", len(ph.raidMs))
	}
	if sp.kill {
		line("degraded_read_bytes_per_block", ratio(float64(ph.fetchedBytes), float64(ph.degradedReads)), "B", ph.degradedReads)
		line("plan_bytes_per_block", ratio(float64(ph.planBytes), float64(ph.degradedReads)), "B", ph.degradedReads)
		line("rs_plan_bytes_per_block", ratio(float64(ph.rsPlanBytes), float64(ph.degradedReads)), "B", ph.degradedReads)
		line("plan_bytes_vs_rs", ratio(float64(ph.planBytes), float64(ph.rsPlanBytes)), "ratio", ph.degradedReads)
	}
	line("failed_ops_frac", ratio(float64(ph.failed), float64(ph.attempted)), "ratio", ph.attempted)
}

func printMetrics(title string, m metricSet) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics:\n", title)
	for _, name := range names {
		v := m[name]
		fmt.Printf("  %-36s %14.4f %-5s n=%d\n", name, v.Value, v.Unit, v.n)
	}
}

// commit is the source revision, passed in by run.sh ("unknown" when
// the checkout is not a git repository).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// fsName names the filesystem holding dir, from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
