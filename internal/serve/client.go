// The serving-layer client. Every block read runs one pipeline:
//
//  1. the client block cache (WithBlockCache), before any RPC;
//  2. the replica chain: the block's live holders, fastest first,
//     until one serves it (a holder refusing the bytes on checksum
//     grounds counts as gone);
//  3. reconstruction from the stripe (a degraded read): fetch the
//     stripe layout from the namenode, try the partial-sum fold
//     (WithPartialSumRepair), then the conventional fan-in of the
//     codec's repair plan. A helper position no holder can serve is
//     marked erased and the plan re-run around it.
//
// Without WithHedgedReads the chain and the reconstruction run inline
// on the caller's goroutine; with it, the chain runs in a goroutine and
// reconstruction races it once the hedge delay passes. readBlock
// retries the pipeline with refreshed metadata. Callers see bytes,
// never failures, as long as the stripe stays recoverable; the Counters
// expose how many block reads had to take the degraded path.
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/hdfs"
	"repro/internal/telemetry"
)

// defaultTimeout bounds one RPC round trip. Localhost RPCs answer in
// microseconds; the bound only matters when a daemon is wedged.
const defaultTimeout = 10 * time.Second

// readAttempts bounds how many times a block read refreshes metadata
// and retries after transport failures before giving up.
const readAttempts = 4

// perNodePartialBudget is the extra deadline budget granted per helper
// of a partial-sum subtree: one dn.partial RPC covers its whole
// subtree's sequential fold, so its timeout must grow with the tree.
const perNodePartialBudget = 500 * time.Millisecond

// partialTimeout returns the deadline for a dn.partial call over a
// subtree of n nodes.
func partialTimeout(n int) time.Duration {
	return defaultTimeout + time.Duration(n)*perNodePartialBudget
}

// conn is one pooled client connection: requests on it are serialised
// (the protocol is strict request/response lockstep).
type conn struct {
	mu sync.Mutex
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialConn(addr string, timeout time.Duration) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// call performs one RPC round trip. A transport failure leaves the
// connection unusable; callers drop it from their pool. A RemoteError
// means the far side answered and said no.
//
// The deadline is refreshed per PHASE of the exchange, not set once
// for the whole call: the write phase gets a fresh budget, and the
// read phase gets another one armed only after the request is fully
// flushed. A single up-front deadline silently shrinks the read budget
// by however long the write took, and — the regression that motivated
// this — any deadline left armed on the pooled connection after a call
// poisons the NEXT exchange on a client held open past its timeout.
// Both deadlines are disarmed on success so an idle pooled connection
// carries no ticking clock.
func (c *conn) call(req *request, payload []byte, timeout time.Duration) (*response, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.nc.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
		return nil, nil, err
	}
	if err := writeFrame(c.bw, req, payload); err != nil {
		return nil, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, nil, err
	}
	if err := c.nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, nil, err
	}
	var resp response
	out, err := readFrame(c.br, &resp)
	if err != nil {
		return nil, nil, err
	}
	if err := c.nc.SetDeadline(time.Time{}); err != nil {
		return nil, nil, err
	}
	if !resp.OK {
		return nil, nil, &RemoteError{Msg: resp.Err}
	}
	return &resp, out, nil
}

func (c *conn) close() { c.nc.Close() }

// isCorruptReplicaErr reports whether a datanode RPC failed because
// the replica's stored bytes failed checksum verification. The typed
// sentinel does not survive the wire, so the remote message carries
// the signal.
func isCorruptReplicaErr(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote) && strings.Contains(remote.Msg, hdfs.ErrCorruptReplica.Error())
}

// Counters are a client's cumulative operation counts. DegradedBlocks
// counts block reads that were served by reconstruction rather than a
// replica; DegradedBlocks/BlocksRead is the degraded-read share.
// DegradedBytesFetched is the payload the client downloaded to serve
// those reconstructions — the paper's bottleneck quantity. A
// conventional degraded read pulls the whole repair plan (~k blocks);
// a partial-sum one pulls a single folded block.
type Counters struct {
	Reads                int64 // whole-file reads completed
	Writes               int64 // whole-file writes completed
	BlocksRead           int64 // block reads completed (healthy + degraded + cache hits)
	DegradedBlocks       int64 // block reads served via reconstruction
	PartialSumBlocks     int64 // degraded reads served by the partial-sum pipeline
	DegradedBytesFetched int64 // bytes received at this client for reconstructions
	CorruptReplicas      int64 // replica reads refused by a datanode's checksum verification
	CacheHits            int64 // block reads served from the client block cache (WithBlockCache)
	CacheMisses          int64 // block reads that consulted the cache and went to the network
	HedgedReads          int64 // reads whose hedge timer fired a parallel reconstruction
	HedgeWins            int64 // hedged reads where reconstruction beat the pending primary
}

// ClientOption configures a Client at dial time.
type ClientOption func(*Client)

// WithPartialSumRepair makes the client's degraded reads use the
// distributed partial-sum pipeline: instead of downloading every helper
// range of the repair plan, the client ships the codec's linear repair
// plan as a rack-aware fold tree to the helpers and downloads ONE
// folded block-sized buffer from the root aggregator. Any failure along
// the tree falls back to the conventional fan-in transparently.
func WithPartialSumRepair() ClientOption {
	return func(c *Client) { c.partialSum = true }
}

// WithTimeout overrides the per-exchange RPC deadline (default 10s).
// The budget applies to each phase of each request/response exchange
// separately — a client is never penalised for its own lifetime, only
// a single wedged write or read can trip it.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithBlockCache gives the client a sharded LRU block cache of n
// bytes: block reads consult it before any RPC and fill it on every
// successful read — healthy, degraded, and partial-sum alike. Keys are
// block ids, which is sound because stored blocks are immutable
// (rewrites allocate fresh ids); n <= 0 leaves caching off.
func WithBlockCache(n int64) ClientOption {
	return func(c *Client) { c.blockCache = cache.New(n, cache.DefaultShards) }
}

// WithHedgedReads arms hedged degraded reads for striped blocks: when
// the replica chain hasn't answered within delay, the client launches
// a stripe reconstruction in parallel and returns whichever path
// finishes first (Counters.HedgedReads / HedgeWins count the races and
// the reconstruction wins). delay <= 0 derives the delay adaptively
// from the client's observed latency quantiles — a multiple of the
// recent p95, so hedges fire on outliers, not jitter.
func WithHedgedReads(delay time.Duration) ClientOption {
	return func(c *Client) {
		c.hedge = true
		c.hedgeDelay = delay
	}
}

// WithTraceSampling samples every Nth degraded read (1 = every one)
// for distributed tracing: the sampled read mints a trace context,
// propagates it on every RPC it issues, and records a root span
// locally. Collect the assembled trace with CollectTrace after reading
// LastTraceID.
func WithTraceSampling(every int) ClientOption {
	return func(c *Client) {
		if every > 0 {
			c.sampleEvery = int64(every)
			c.spans = telemetry.NewSpanStore(0)
		}
	}
}

// Client talks to a serving cluster. It is safe for concurrent use;
// workloads wanting parallel in-flight requests should prefer one
// Client per worker, since requests on one pooled connection
// serialise.
type Client struct {
	code       ec.Code
	nameAddr   string
	timeout    time.Duration
	partialSum bool

	mu      sync.Mutex
	name    *conn
	dns     map[string]*conn
	addrs   []string // machine id → datanode address ("" = down)
	perRack int      // machines per rack, from the handshake

	rr atomic.Uint64 // rotation among latency-tied replicas

	// Read-path accelerators: the optional block cache (nil = off), the
	// always-on per-datanode latency tracker feeding replica ordering,
	// and the hedged-read arm.
	blockCache *cache.Cache
	lat        *latencyTracker
	hedge      bool
	hedgeDelay time.Duration // <= 0: adaptive (see hedgeDelayNow)

	// Operation counters live on a per-client registry, so Counters()
	// reads and the hot paths that bump them are both atomic — no
	// torn reads under -race — and a snapshot of every client metric
	// is one Registry.Snapshot away.
	reg             *telemetry.Registry
	cReads          *telemetry.Counter
	cWrites         *telemetry.Counter
	cBlocksRead     *telemetry.Counter
	cDegradedBlocks *telemetry.Counter
	cPartialBlocks  *telemetry.Counter
	cDegradedBytes  *telemetry.Counter
	cCorruptReps    *telemetry.Counter
	cCacheHits      *telemetry.Counter
	cCacheMisses    *telemetry.Counter
	cHedgedReads    *telemetry.Counter
	cHedgeWins      *telemetry.Counter

	// Trace sampling state (WithTraceSampling): every Nth degraded
	// read propagates a trace context and records a client root span.
	sampleEvery int64
	degradedSeq atomic.Int64
	lastTrace   atomic.Uint64
	spans       *telemetry.SpanStore
}

// Dial connects to the namenode and fetches the cluster handshake.
// code must match the cluster's codec (the handshake enforces it by
// name): the client decodes degraded reads locally.
func Dial(nameAddr string, code ec.Code, opts ...ClientOption) (*Client, error) {
	c := &Client{
		code:     code,
		nameAddr: nameAddr,
		timeout:  defaultTimeout,
		dns:      make(map[string]*conn),
		reg:      telemetry.NewRegistry(),
		lat:      newLatencyTracker(),
	}
	c.cReads = c.reg.Counter("client_reads_total")
	c.cWrites = c.reg.Counter("client_writes_total")
	c.cBlocksRead = c.reg.Counter("client_blocks_read_total")
	c.cDegradedBlocks = c.reg.Counter("client_degraded_blocks_total")
	c.cPartialBlocks = c.reg.Counter("client_partialsum_blocks_total")
	c.cDegradedBytes = c.reg.Counter("client_degraded_bytes_total")
	c.cCorruptReps = c.reg.Counter("client_corrupt_replicas_total")
	c.cCacheHits = c.reg.Counter("client_cache_hits_total")
	c.cCacheMisses = c.reg.Counter("client_cache_misses_total")
	c.cHedgedReads = c.reg.Counter("client_hedged_reads_total")
	c.cHedgeWins = c.reg.Counter("client_hedge_wins_total")
	for _, opt := range opts {
		opt(c)
	}
	resp, err := c.nameCall(&request{Method: methodInfo}, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", nameAddr, err)
	}
	if resp.Codec != code.Name() {
		return nil, fmt.Errorf("serve: cluster runs %s, client built for %s", resp.Codec, code.Name())
	}
	c.mu.Lock()
	c.addrs = resp.DataNodes
	c.perRack = resp.MachinesPerRack
	c.mu.Unlock()
	return c, nil
}

// Counters returns the cumulative operation counts. Each field is an
// atomic read of the backing registry counter, so calling concurrently
// with in-flight operations is race-free (values may trail operations
// completing mid-snapshot, as any concurrent counter read does).
func (c *Client) Counters() Counters {
	return Counters{
		Reads:                c.cReads.Value(),
		Writes:               c.cWrites.Value(),
		BlocksRead:           c.cBlocksRead.Value(),
		DegradedBlocks:       c.cDegradedBlocks.Value(),
		PartialSumBlocks:     c.cPartialBlocks.Value(),
		DegradedBytesFetched: c.cDegradedBytes.Value(),
		CorruptReplicas:      c.cCorruptReps.Value(),
		CacheHits:            c.cCacheHits.Value(),
		CacheMisses:          c.cCacheMisses.Value(),
		HedgedReads:          c.cHedgedReads.Value(),
		HedgeWins:            c.cHedgeWins.Value(),
	}
}

// Telemetry exposes the client's metrics registry — the same counters
// Counters() reports, in mergeable snapshot form.
func (c *Client) Telemetry() *telemetry.Registry { return c.reg }

// LastTraceID returns the trace id of the most recent sampled degraded
// read (0 when tracing is off or nothing sampled yet).
func (c *Client) LastTraceID() uint64 { return c.lastTrace.Load() }

// Close severs every pooled connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.name != nil {
		c.name.close()
		c.name = nil
	}
	for _, cn := range c.dns {
		cn.close()
	}
	c.dns = make(map[string]*conn)
	return nil
}

// nameCall performs one namenode RPC, redialling once if the pooled
// connection has gone stale.
func (c *Client) nameCall(req *request, payload []byte) (*response, error) {
	for attempt := 0; attempt < 2; attempt++ {
		c.mu.Lock()
		cn := c.name
		c.mu.Unlock()
		if cn == nil {
			fresh, err := dialConn(c.nameAddr, c.timeout)
			if err != nil {
				return nil, err
			}
			c.mu.Lock()
			if c.name == nil {
				c.name = fresh
				cn = fresh
			} else {
				cn = c.name
				fresh.close()
			}
			c.mu.Unlock()
		}
		resp, _, err := cn.call(req, payload, c.timeout)
		if err == nil {
			return resp, nil
		}
		if _, remote := err.(*RemoteError); remote {
			return nil, err
		}
		// Transport failure: drop the pooled connection and redial.
		c.mu.Lock()
		if c.name == cn {
			c.name = nil
		}
		c.mu.Unlock()
		cn.close()
		if attempt == 1 {
			return nil, err
		}
	}
	panic("unreachable")
}

// refreshAddrs re-fetches the datanode address table — needed after a
// daemon dies (its address empties) or restarts (fresh port).
func (c *Client) refreshAddrs() error {
	resp, err := c.nameCall(&request{Method: methodInfo}, nil)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.addrs = resp.DataNodes
	c.perRack = resp.MachinesPerRack
	c.mu.Unlock()
	return nil
}

// dnCall performs one RPC against the given machine's datanode. The
// timeout is explicit because partial-sum calls scale theirs with the
// fold tree's size; the response header carries debug.trace's spans.
func (c *Client) dnCall(machine int, req *request, timeout time.Duration) (*response, []byte, error) {
	c.mu.Lock()
	var addr string
	if machine >= 0 && machine < len(c.addrs) {
		addr = c.addrs[machine]
	}
	cn := c.dns[addr]
	c.mu.Unlock()
	if addr == "" {
		return nil, nil, fmt.Errorf("serve: datanode %d has no address (down?)", machine)
	}
	if cn == nil {
		fresh, err := dialConn(addr, timeout)
		if err != nil {
			return nil, nil, err
		}
		c.mu.Lock()
		if existing := c.dns[addr]; existing != nil {
			cn = existing
			fresh.close()
		} else {
			c.dns[addr] = fresh
			cn = fresh
		}
		c.mu.Unlock()
	}
	start := time.Now()
	resp, out, err := cn.call(req, nil, timeout)
	if err != nil {
		if _, remote := err.(*RemoteError); !remote {
			// A transport failure took this long to surface — that IS
			// the machine's observed latency; feeding it deprioritises
			// the node for subsequent reads. Remote errors are excluded:
			// a datanode refusing a corrupt replica answers fast, and
			// that speed says nothing about serving real payloads.
			c.lat.observe(machine, time.Since(start))
			c.mu.Lock()
			if c.dns[addr] == cn {
				delete(c.dns, addr)
			}
			c.mu.Unlock()
			cn.close()
		}
		return nil, nil, err
	}
	c.lat.observe(machine, time.Since(start))
	return resp, out, nil
}

// WriteFile stores data as a new file.
func (c *Client) WriteFile(name string, data []byte) error {
	if _, err := c.nameCall(&request{Method: methodWrite, Name: name}, data); err != nil {
		return err
	}
	c.cWrites.Inc()
	return nil
}

// RaidFile erasure-codes a file in place.
func (c *Client) RaidFile(name string) error {
	_, err := c.nameCall(&request{Method: methodRaid, Name: name}, nil)
	return err
}

// FixReport summarises a block-fixer pass driven over the wire.
type FixReport struct {
	ScannedBlocks   int
	RepairedStriped int
	ReReplicated    int
	Unrecoverable   int
}

// RunBlockFixer drives one fixer pass on the namenode.
func (c *Client) RunBlockFixer() (FixReport, error) {
	resp, err := c.nameCall(&request{Method: methodFixer}, nil)
	if err != nil {
		return FixReport{}, err
	}
	if resp.Fix == nil {
		return FixReport{}, fmt.Errorf("serve: fixer reply missing report")
	}
	return FixReport{
		ScannedBlocks:   resp.Fix.ScannedBlocks,
		RepairedStriped: resp.Fix.RepairedStriped,
		ReReplicated:    resp.Fix.ReReplicated,
		Unrecoverable:   resp.Fix.Unrecoverable,
	}, nil
}

// FailMachine fails a machine (and its daemon) through the namenode.
func (c *Client) FailMachine(machine int) error {
	_, err := c.nameCall(&request{Method: methodFail, Machine: machine}, nil)
	return err
}

// RestoreMachine restores a machine (and its daemon) through the
// namenode.
func (c *Client) RestoreMachine(machine int) error {
	_, err := c.nameCall(&request{Method: methodRestore, Machine: machine}, nil)
	return err
}

// RepairStatus is the client-visible snapshot of the repair control
// plane (see the wire struct for field semantics).
type RepairStatus struct {
	Nodes           []RepairNodeState
	QueueDepth      int
	QueueByErasures map[int]int
	Paused          bool
	DegradedStripes int
	DegradedBlocks  int
	RepairsDone     int
	RepairedBytes   int64
	Unrecoverable   int
	AvoidedRepairs  int
	AvoidedBytes    int64
	LostBlocks      int
	ScrubSlices     int
	ScrubReplicas   int
	ScrubCorrupt    int
	ThrottleBps     float64
	Completed       []CompletedFix
	// UptimeSeconds / SecondsSincePoll (-1 = never polled) / PollCount
	// distinguish a stalled control loop from an idle one.
	UptimeSeconds    float64
	SecondsSincePoll float64
	PollCount        int64
}

// RepairNodeState is one machine's failure-detector state.
type RepairNodeState struct {
	Machine int
	State   string // alive | suspect | dead
}

// CompletedFix is one completed repair, in completion order — the
// observable record that priority ordering actually held.
type CompletedFix struct {
	Seq           int
	Kind          string // stripe | replicated
	Stripe        int64
	Block         int64
	Erasures      int
	Bytes         int64
	WaitSeconds   float64
	Unrecoverable bool
}

// RepairStatus fetches the control plane's status from the namenode.
// It errors when the cluster runs without a repair manager.
func (c *Client) RepairStatus() (*RepairStatus, error) {
	resp, err := c.nameCall(&request{Method: methodRepairStatus}, nil)
	if err != nil {
		return nil, err
	}
	if resp.Repair == nil {
		return nil, fmt.Errorf("serve: repair status reply missing payload")
	}
	w := resp.Repair
	st := &RepairStatus{
		QueueDepth:      w.QueueDepth,
		QueueByErasures: make(map[int]int, len(w.QueueByErasures)),
		Paused:          w.Paused,
		DegradedStripes: w.DegradedStripes,
		DegradedBlocks:  w.DegradedBlocks,
		RepairsDone:     w.RepairsDone,
		RepairedBytes:   w.RepairedBytes,
		Unrecoverable:   w.Unrecoverable,
		AvoidedRepairs:  w.AvoidedRepairs,
		AvoidedBytes:    w.AvoidedBytes,
		LostBlocks:      w.LostBlocks,
		ScrubSlices:     w.ScrubSlices,
		ScrubReplicas:   w.ScrubReplicas,
		ScrubCorrupt:    w.ScrubCorrupt,
		ThrottleBps:     w.ThrottleBps,

		UptimeSeconds:    w.UptimeSeconds,
		SecondsSincePoll: w.SecondsSincePoll,
		PollCount:        w.PollCount,
	}
	for _, n := range w.Nodes {
		st.Nodes = append(st.Nodes, RepairNodeState{Machine: n.Machine, State: n.State})
	}
	for _, d := range w.QueueByErasures {
		st.QueueByErasures[d.Erasures] = d.Count
	}
	for _, f := range w.Completed {
		st.Completed = append(st.Completed, CompletedFix{
			Seq:           f.Seq,
			Kind:          f.Kind,
			Stripe:        f.Stripe,
			Block:         f.Block,
			Erasures:      f.Erasures,
			Bytes:         f.Bytes,
			WaitSeconds:   f.WaitSeconds,
			Unrecoverable: f.Unrecoverable,
		})
	}
	return st, nil
}

// CollectTrace assembles one distributed trace: the client's local
// root span plus the spans buffered at the namenode and every
// reachable datanode, filtered to traceID. Daemons that are down (or
// run without telemetry) are skipped — their spans are simply absent,
// which is what a trace of a system with failures looks like. The
// caller builds the tree with telemetry.BuildTree.
func (c *Client) CollectTrace(traceID uint64) ([]telemetry.Span, error) {
	if traceID == 0 {
		return nil, errors.New("serve: trace id 0 names no trace")
	}
	spans := c.spans.Trace(traceID)
	if resp, err := c.nameCall(&request{Method: methodDebugTrace, TraceID: traceID}, nil); err == nil {
		spans = append(spans, resp.Spans...)
	}
	c.mu.Lock()
	addrs := append([]string(nil), c.addrs...)
	c.mu.Unlock()
	for m, addr := range addrs {
		if addr == "" {
			continue
		}
		resp, _, err := c.dnCall(m, &request{Method: methodDebugTrace, TraceID: traceID}, c.timeout)
		if err != nil {
			continue
		}
		spans = append(spans, resp.Spans...)
	}
	return spans, nil
}

// fileBlocks fetches the file's size and block table.
func (c *Client) fileBlocks(name string) (int64, []wireBlock, error) {
	resp, err := c.nameCall(&request{Method: methodBlocks, Name: name}, nil)
	if err != nil {
		return 0, nil, err
	}
	return resp.Size, resp.Blocks, nil
}

// ReadFile returns the file's contents. Block reads rotate across
// replicas; blocks with no answering replica are transparently
// reconstructed from their stripe (degraded read), with helper ranges
// fetched over the wire.
func (c *Client) ReadFile(name string) ([]byte, error) {
	size, blocks, err := c.fileBlocks(name)
	if err != nil {
		return nil, err
	}
	// The size is namenode-reported wire data; bound it before it
	// sizes the assembly buffer.
	if size < 0 || size > maxPayloadBytes {
		return nil, fmt.Errorf("serve: file %s reports size %d out of bounds", name, size)
	}
	out := make([]byte, 0, size)
	for i := range blocks {
		data, err := c.readBlock(name, i, blocks[i])
		if err != nil {
			return nil, fmt.Errorf("serve: read %s block %d: %w", name, i, err)
		}
		out = append(out, data...)
	}
	c.cReads.Inc()
	return out, nil
}

// readBlock reads one block: the client cache first, then fetchBlock,
// retried with refreshed metadata when replicas or helpers die
// mid-flight. Every successful fetch fills the cache; keys are
// immutable block ids, so a hit needs no metadata.
func (c *Client) readBlock(name string, index int, b wireBlock) ([]byte, error) {
	if c.blockCache != nil {
		if data, ok := c.blockCache.Get(uint64(b.ID)); ok {
			c.cCacheHits.Inc()
			c.cBlocksRead.Inc()
			return data, nil
		}
		c.cCacheMisses.Inc()
	}
	var lastErr error
	for attempt := 0; attempt < readAttempts; attempt++ {
		if attempt > 0 {
			// Metadata may be stale: the holder set changed, daemons
			// moved ports, or the block got fixed to a new machine.
			if err := c.refreshAddrs(); err != nil {
				return nil, err
			}
			_, blocks, err := c.fileBlocks(name)
			if err != nil {
				return nil, err
			}
			if index >= len(blocks) {
				return nil, fmt.Errorf("serve: block index %d vanished", index)
			}
			b = blocks[index]
		}
		data, degraded, err := c.fetchBlock(b)
		if err != nil {
			lastErr = err
			continue
		}
		c.cBlocksRead.Inc()
		if degraded {
			c.cDegradedBlocks.Inc()
		}
		c.blockCache.Put(uint64(b.ID), data)
		return data, nil
	}
	return nil, lastErr
}

// fetchBlock reads one block over the network: the replica chain, then
// reconstruction from the stripe; degraded reports whether
// reconstruction served it. Without a hedge both stages run inline on
// the caller's goroutine, with no handoff; a hedging client races them
// (hedgedFetch).
func (c *Client) fetchBlock(b wireBlock) (data []byte, degraded bool, err error) {
	if c.hedge && b.Stripe >= 0 && len(b.Locations) > 0 {
		return c.hedgedFetch(b)
	}
	if data, err = c.readReplicas(b.Locations, b.ID, 0, b.Size, nil); err == nil || b.Stripe < 0 {
		return data, false, err
	}
	data, err = c.reconstruct(b)
	return data, err == nil, err
}

// readReplicas reads one byte range of a block from the first of its
// holders to serve it, walking them fastest first (replicaOrder). A
// holder that refuses the range on checksum grounds is as gone as a
// dead one: it is counted in CorruptReplicas and the walk moves on.
// trace, when non-nil, rides every request so the datanode's span
// parents under the caller's.
func (c *Client) readReplicas(locations []int, block, offset, length int64, trace *telemetry.TraceContext) ([]byte, error) {
	var lastErr error
	for _, m := range c.replicaOrder(locations) {
		_, data, err := c.dnCall(m, &request{Method: methodDNRead, Block: block, Offset: offset, Length: length, Trace: trace}, c.timeout)
		if err == nil {
			return data, nil
		}
		if isCorruptReplicaErr(err) {
			c.cCorruptReps.Inc()
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("serve: block %d has no live replicas", block)
	}
	return nil, lastErr
}

// reconstruct rebuilds one striped block from its stripe (a degraded
// read) and truncates the decoded shard to the block's logical size.
// It fetches the stripe layout, tries the partial-sum fold when
// enabled, then the conventional fan-in: the codec's repair plan with
// every helper range read through readReplicas. Phantom positions
// (short tail stripes) decode as zeros without touching the network —
// exactly the access pattern the repair plans charge for.
//
// Every Nth call (WithTraceSampling) mints a trace context that rides
// each RPC it issues and records a root span whose Bytes is the
// payload this client downloaded for the read.
func (c *Client) reconstruct(b wireBlock) (_ []byte, err error) {
	var (
		tc      *telemetry.TraceContext
		fetched int64
	)
	if c.sampleEvery > 0 && (c.degradedSeq.Add(1)-1)%c.sampleEvery == 0 {
		tc = &telemetry.TraceContext{TraceID: telemetry.NewID(), SpanID: telemetry.NewID(), Sampled: true}
		c.lastTrace.Store(tc.TraceID)
		start := time.Now()
		defer func() {
			span := telemetry.Span{
				TraceID:       tc.TraceID,
				SpanID:        tc.SpanID,
				Name:          "degraded_read",
				Process:       "client",
				StartUnixNano: start.UnixNano(),
				DurationNanos: int64(time.Since(start)),
				Bytes:         fetched,
			}
			if err != nil {
				span.Err = err.Error()
			}
			c.spans.Add(span)
		}()
	}
	resp, err := c.nameCall(&request{Method: methodStripe, Stripe: b.Stripe, Trace: tc}, nil)
	if err != nil {
		return nil, err
	}
	st := resp.Stripe
	if st == nil {
		return nil, fmt.Errorf("serve: stripe %d reply missing layout", b.Stripe)
	}
	// The shard size comes off the wire; bound it before it sizes any
	// reconstruction buffer (here and in the partial-sum pipeline).
	if st.ShardSize <= 0 || st.ShardSize > maxPayloadBytes {
		return nil, fmt.Errorf("serve: stripe %d reports shard size %d out of bounds", b.Stripe, st.ShardSize)
	}
	// The target position starts erased regardless of the layout's
	// listed holders: reconstruction runs only after every replica
	// failed to serve, and the codec rejects repairing a position its
	// alive-view says present. Helper positions join the set when no
	// holder can serve them.
	erased := map[int]bool{b.StripePos: true}
	alive := func(pos int) bool {
		if pos < 0 || pos >= len(st.Positions) || erased[pos] {
			return false
		}
		p := st.Positions[pos]
		return p.Block < 0 || len(p.Locations) > 0
	}
	if c.partialSum {
		if shard, err := c.partialDegradedRead(b, st, alive, tc, &fetched); err == nil {
			c.cPartialBlocks.Inc()
			return shard[:b.Size], nil
		}
		// Any pipeline failure (helper died mid-fold, stale addresses,
		// no linear plan) falls back to the conventional fan-in below.
	}
	for {
		unreadable := -1
		shard, err := c.code.ExecuteRepair(b.StripePos, st.ShardSize, alive, func(req ec.ReadRequest) ([]byte, error) {
			if req.Length < 0 || req.Length > st.ShardSize {
				return nil, fmt.Errorf("serve: plan read of %d bytes exceeds shard size %d", req.Length, st.ShardSize)
			}
			p := st.Positions[req.Shard]
			if p.Block < 0 {
				return make([]byte, req.Length), nil
			}
			buf, err := c.readReplicas(p.Locations, p.Block, req.Offset, req.Length, tc)
			if err != nil {
				unreadable = req.Shard
				return nil, err
			}
			c.cDegradedBytes.Add(req.Length)
			fetched += req.Length
			return buf, nil
		})
		if err == nil {
			return shard[:b.Size], nil
		}
		if unreadable < 0 || erased[unreadable] {
			return nil, err
		}
		// Every holder of that helper is dead or rotten. The namenode
		// will keep listing a rotten replica, so a retry would re-plan
		// onto it; plan around it here instead.
		erased[unreadable] = true
	}
}

// partialDegradedRead reconstructs one striped block through the
// distributed partial-sum pipeline: plan the repair as a linear
// combination, map each helper shard to a live holder, build the
// rack-aware fold tree, and download the single folded buffer from the
// root aggregator. The reconstructing client's NIC carries one
// block-sized payload instead of the plan's ~k.
func (c *Client) partialDegradedRead(b wireBlock, st *wireStripe, alive ec.AliveFunc, tc *telemetry.TraceContext, fetched *int64) ([]byte, error) {
	// reconstruct bounds st.ShardSize before calling here; repeat the
	// check so the zero-fold fast path below stays safe under any
	// future caller.
	if st.ShardSize <= 0 || st.ShardSize > maxPayloadBytes {
		return nil, fmt.Errorf("serve: stripe %d reports shard size %d out of bounds", st.ID, st.ShardSize)
	}
	lp, ok := c.code.(ec.LinearRepairPlanner)
	if !ok {
		return nil, fmt.Errorf("serve: %s has no linear repair plan", c.code.Name())
	}
	c.mu.Lock()
	addrs := append([]string(nil), c.addrs...)
	perRack := c.perRack
	c.mu.Unlock()
	if perRack <= 0 {
		return nil, errors.New("serve: cluster handshake lacks rack geometry")
	}
	plan, err := lp.PlanLinearRepair(b.StripePos, st.ShardSize, alive)
	if err != nil {
		return nil, err
	}
	// Pin one live, addressable holder per stripe position up front so
	// the tree planner sees a stable placement.
	holder := make([]int, len(st.Positions))
	for pos, p := range st.Positions {
		holder[pos] = -1
		if p.Block < 0 {
			continue
		}
		for _, m := range c.replicaOrder(p.Locations) {
			if m >= 0 && m < len(addrs) && addrs[m] != "" {
				holder[pos] = m
				break
			}
		}
	}
	for _, t := range plan.Terms {
		if p := st.Positions[t.Read.Shard]; p.Block >= 0 && holder[t.Read.Shard] < 0 {
			return nil, fmt.Errorf("serve: stripe %d position %d has no addressable holder", st.ID, t.Read.Shard)
		}
	}
	tree, err := engine.PlanAggregationTree(plan,
		func(shard int) (int, bool) { return holder[shard], st.Positions[shard].Block >= 0 },
		func(m int) int { return m / perRack },
	)
	if err != nil {
		if errors.Is(err, engine.ErrNoHelpers) {
			// Every term was a phantom zero shard: the fold is zero.
			return make([]byte, st.ShardSize), nil
		}
		return nil, err
	}
	root, err := wireTree(tree.Root, st, addrs)
	if err != nil {
		return nil, err
	}
	_, out, err := c.dnCall(tree.Root.Machine, &request{
		Method:  methodDNPartial,
		Length:  tree.TargetSize,
		Partial: root,
		Trace:   tc,
	}, partialTimeout(len(tree.Nodes())))
	if err != nil {
		return nil, err
	}
	if int64(len(out)) != tree.TargetSize {
		return nil, fmt.Errorf("serve: partial buffer has %d bytes, want %d", len(out), tree.TargetSize)
	}
	c.cDegradedBytes.Add(int64(len(out)))
	*fetched += int64(len(out))
	return out, nil
}

// wireTree converts a planned aggregation tree into its wire form,
// resolving stripe positions to block ids and machines to daemon
// addresses.
func wireTree(n *engine.AggNode, st *wireStripe, addrs []string) (*wirePartialNode, error) {
	out := &wirePartialNode{Machine: n.Machine}
	if n.Machine >= 0 && n.Machine < len(addrs) {
		out.Addr = addrs[n.Machine]
	}
	if out.Addr == "" {
		return nil, fmt.Errorf("serve: helper machine %d has no address", n.Machine)
	}
	for _, t := range n.Terms {
		out.Terms = append(out.Terms, wirePartialTerm{
			Block:     st.Positions[t.Shard].Block,
			Offset:    t.Offset,
			Length:    t.Length,
			TargetOff: t.TargetOff,
			Coeff:     t.Coeff,
		})
	}
	for _, child := range n.Children {
		wc, err := wireTree(child, st, addrs)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, *wc)
	}
	return out, nil
}
