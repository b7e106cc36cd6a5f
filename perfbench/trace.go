package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ec"
	"repro/internal/extent"
	"repro/internal/hdfs"
)

// Span names. Client-side spans (ReadFile and friends, plus the codec
// calls a worker's own client makes) carry a parent; server-side spans
// (store ops, and codec calls inside the namenode or fixer) cannot be
// linked across the TCP hop and carry the op kinds in flight instead.
const (
	spanRead        = "client.ReadFile"
	spanWrite       = "client.WriteFile"
	spanRaid        = "client.RaidFile"
	spanFixer       = "client.RunBlockFixer"
	spanRepair      = "codec.ExecuteRepair"
	spanMultiRepair = "codec.ExecuteMultiRepair"
	spanEncode      = "codec.Encode"
	spanFetch       = "codec.fetch"
	spanStoreGet    = "store.Get"
	spanStorePut    = "store.Put"
	spanStoreDelete = "store.Delete"
)

// Op kinds, used as a bitmask of what the workers had in flight when a
// server-side span started.
const (
	kindRead uint8 = 1 << iota
	kindWrite
	kindRaid
	kindFixer
)

// span is one timed call at a public boundary. Times are nanoseconds
// since the tracer's base.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Worker int    `json:"worker"` // -1 for server-side spans
	Bytes  int64  `json:"bytes,omitempty"`
	Kinds  uint8  `json:"kinds,omitempty"` // server-side: op kinds in flight
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths need no branches.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// Per-worker current op: id and kind, read by that worker's codec
	// wrapper (for parent links) and by server-side wrappers (for the
	// in-flight kind mask).
	opID   []atomic.Uint64
	opKind []atomic.Uint32
}

func newTracer(workers int) *tracer {
	return &tracer{
		base:   time.Now(),
		spans:  make([]span, 0, 1<<16),
		opID:   make([]atomic.Uint64, workers),
		opKind: make([]atomic.Uint32, workers),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// inFlight returns the bitmask of op kinds the workers are running.
func (t *tracer) inFlight() uint8 {
	var m uint8
	for i := range t.opKind {
		m |= uint8(t.opKind[i].Load())
	}
	return m
}

// beginOp marks worker w as running an op of the given kind and
// returns the op's span id and start time.
func (t *tracer) beginOp(w int, kind uint8) (uint64, int64) {
	if t == nil {
		return 0, 0
	}
	id := t.nextID.Add(1)
	t.opID[w].Store(id)
	t.opKind[w].Store(uint32(kind))
	return id, t.now()
}

// endOp records the op span and clears worker w's in-flight state.
func (t *tracer) endOp(w int, id uint64, name string, start int64, err error) {
	if t == nil {
		return
	}
	t.opKind[w].Store(0)
	t.opID[w].Store(0)
	t.add(span{ID: id, Op: id, Name: name, Start: start, End: t.now(), Worker: w, Err: err != nil})
}

// reset drops every span recorded so far, so a measurement window
// starts empty.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far (nil for a
// nil tracer).
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONLines writes spans to path, one JSON object per line.
func writeJSONLines(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedCode wraps an ec.Code and records spans around Encode,
// ExecuteRepair, ExecuteMultiRepair and every FetchFunc call they
// make. worker >= 0 marks a client-side wrapper whose spans link to
// that worker's current op; worker -1 marks the server-side wrapper
// handed to hdfs.Config.Code.
type timedCode struct {
	ec.Code
	t      *tracer
	worker int
}

// timedLinearCode adds PlanLinearRepair for codecs that have it, so
// the wrapper exposes exactly the optional interfaces of its codec.
type timedLinearCode struct {
	*timedCode
	lp ec.LinearRepairPlanner
}

func (c timedLinearCode) PlanLinearRepair(idx int, shardSize int64, alive ec.AliveFunc) (*ec.LinearPlan, error) {
	return c.lp.PlanLinearRepair(idx, shardSize, alive)
}

// wrapCode returns code wrapped for tracing, or code itself when t is
// nil.
func wrapCode(code ec.Code, t *tracer, worker int) ec.Code {
	if t == nil {
		return code
	}
	tc := &timedCode{Code: code, t: t, worker: worker}
	if lp, ok := code.(ec.LinearRepairPlanner); ok {
		return timedLinearCode{timedCode: tc, lp: lp}
	}
	return tc
}

// open starts a span: client-side spans take the worker's current op
// as op id and parent; server-side spans take the in-flight kinds.
func (c *timedCode) open(name string) span {
	s := span{ID: c.t.nextID.Add(1), Name: name, Worker: c.worker, Start: c.t.now()}
	if c.worker >= 0 {
		s.Op = c.t.opID[c.worker].Load()
		s.Parent = s.Op
	} else {
		s.Kinds = c.t.inFlight()
	}
	return s
}

func (c *timedCode) close(s span, err error) {
	s.End = c.t.now()
	s.Err = err != nil
	c.t.add(s)
}

// fetch wraps a FetchFunc so each call is a child span of parent.
func (c *timedCode) fetch(parent span, f ec.FetchFunc) ec.FetchFunc {
	return func(req ec.ReadRequest) ([]byte, error) {
		s := span{ID: c.t.nextID.Add(1), Parent: parent.ID, Op: parent.Op, Name: spanFetch,
			Worker: c.worker, Kinds: parent.Kinds, Start: c.t.now()}
		buf, err := f(req)
		s.Bytes = int64(len(buf))
		c.close(s, err)
		return buf, err
	}
}

func (c *timedCode) Encode(shards [][]byte) error {
	s := c.open(spanEncode)
	err := c.Code.Encode(shards)
	c.close(s, err)
	return err
}

func (c *timedCode) ExecuteRepair(idx int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) ([]byte, error) {
	s := c.open(spanRepair)
	out, err := c.Code.ExecuteRepair(idx, shardSize, alive, c.fetch(s, fetch))
	c.close(s, err)
	return out, err
}

func (c *timedCode) ExecuteMultiRepair(missing []int, shardSize int64, alive ec.AliveFunc, fetch ec.FetchFunc) (map[int][]byte, error) {
	s := c.open(spanMultiRepair)
	out, err := c.Code.ExecuteMultiRepair(missing, shardSize, alive, c.fetch(s, fetch))
	c.close(s, err)
	return out, err
}

// timedStore wraps one datanode's BlockStore and times Get, Put and
// Delete. Every other method passes straight through.
type timedStore struct {
	hdfs.BlockStore
	t *tracer
}

// Extent exposes the wrapped extent store, as the factory-built store
// does (nil for other stores).
func (s timedStore) Extent() *extent.Store { return extentOf(s.BlockStore) }

func (s timedStore) record(name string, start int64, kinds uint8, n int, err error) {
	s.t.add(span{ID: s.t.nextID.Add(1), Name: name, Worker: -1, Start: start, End: s.t.now(),
		Kinds: kinds, Bytes: int64(n), Err: err != nil})
}

func (s timedStore) Get(id hdfs.BlockID) ([]byte, error) {
	start, kinds := s.t.now(), s.t.inFlight()
	data, err := s.BlockStore.Get(id)
	s.record(spanStoreGet, start, kinds, len(data), err)
	return data, err
}

func (s timedStore) Put(id hdfs.BlockID, data []byte) error {
	start, kinds := s.t.now(), s.t.inFlight()
	err := s.BlockStore.Put(id, data)
	s.record(spanStorePut, start, kinds, len(data), err)
	return err
}

func (s timedStore) Delete(id hdfs.BlockID) error {
	start, kinds := s.t.now(), s.t.inFlight()
	err := s.BlockStore.Delete(id)
	s.record(spanStoreDelete, start, kinds, 0, err)
	return err
}

// wrapStoreFactory wraps every store the factory builds (the factory
// itself when t is nil).
func wrapStoreFactory(f func(int) (hdfs.BlockStore, error), t *tracer) func(int) (hdfs.BlockStore, error) {
	if t == nil {
		return f
	}
	return func(machine int) (hdfs.BlockStore, error) {
		st, err := f(machine)
		if err != nil {
			return nil, err
		}
		return timedStore{BlockStore: st, t: t}, nil
	}
}

// extentOf reaches the extent store behind a BlockStore, or nil.
func extentOf(st hdfs.BlockStore) *extent.Store {
	if x, ok := st.(interface{ Extent() *extent.Store }); ok {
		return x.Extent()
	}
	return nil
}

// interval is a half-open [start, end) in tracer nanoseconds.
type interval struct{ start, end int64 }

// unionWithin returns the total length of the union of the intervals,
// each clipped to [lo, hi).
func unionWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}

// selfTime is a span's duration minus the union of its children's
// intervals within it.
func selfTime(parent span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return parent.dur() - unionWithin(ivs, parent.Start, parent.End)
}
