package main

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/extent"
)

// percentile returns the nearest-rank q-quantile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// share is the weight of a server-side span attributed to op kind k:
// the span is split evenly among the kinds in flight when it started.
func share(mask, k uint8) float64 {
	if mask&k == 0 {
		return 0
	}
	return 1 / float64(bits.OnesCount8(mask))
}

// row is one line of a per-layer table: a layer's mean milliseconds
// per op. within marks a row already counted inside another row (a
// server-side span behind a client-side one), which the sum skips.
type row struct {
	layer  string
	ms     float64
	within string
}

// table decomposes one op type's traced mean latency into layers. The
// additive rows plus the client's self time (the remainder, reported
// as its own row) sum to the traced end-to-end mean.
type table struct {
	op     string
	n      int
	meanMs float64
	rows   []row
}

func (t table) print(w io.Writer) {
	fmt.Fprintf(w, "  %-24s mean %.3f ms over %d ops\n", t.op, t.meanMs, t.n)
	var sum float64
	for _, r := range t.rows {
		if r.within != "" {
			fmt.Fprintf(w, "    %-36s %9.3f ms  (within %s)\n", r.layer, r.ms, r.within)
			continue
		}
		sum += r.ms
		fmt.Fprintf(w, "    %-36s %9.3f ms\n", r.layer, r.ms)
	}
	fmt.Fprintf(w, "    %-36s %9.3f ms  (mean %.3f)\n", "sum of layers", sum, t.meanMs)
}

// traceIndex groups a window's spans for the layer computations.
type traceIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) *traceIndex {
	ix := &traceIndex{byName: make(map[string][]span), children: make(map[uint64][]span)}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// ops returns the successful op spans of one name.
func (ix *traceIndex) ops(name string) []span {
	var out []span
	for _, s := range ix.byName[name] {
		if !s.Err {
			out = append(out, s)
		}
	}
	return out
}

// side filters spans to client-side (worker >= 0) or server-side.
func side(spans []span, client bool) []span {
	var out []span
	for _, s := range spans {
		if (s.Worker >= 0) == client {
			out = append(out, s)
		}
	}
	return out
}

func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}

func intervals(spans ...[]span) []interval {
	var out []interval
	for _, ss := range spans {
		for _, s := range ss {
			out = append(out, interval{s.Start, s.End})
		}
	}
	return out
}

// attributedMs is the server-side time of spans attributed to op kind
// k, in milliseconds per op of that kind.
func attributedMs(spans []span, k uint8, ops int) float64 {
	var ns float64
	for _, s := range spans {
		ns += float64(s.dur()) * share(s.Kinds, k)
	}
	return ratio(ns/1e6, float64(ops))
}

// attributedCount is the number of spans attributed to op kind k.
func attributedCount(spans []span, k uint8) float64 {
	var n float64
	for _, s := range spans {
		n += share(s.Kinds, k)
	}
	return n
}

// readTable splits ReadFile into the client's own time, codec decode
// and helper fetches. Each worker's codec wrapper links its repairs to
// the read that caused them, so the split is exact per read.
func readTable(ix *traceIndex) table {
	reads := ix.ops(spanRead)
	t := table{op: spanRead, n: len(reads)}
	var self, decode, fetch []float64
	for _, r := range reads {
		var reps, fetches []span
		for _, c := range ix.children[r.ID] {
			if c.Name == spanRepair {
				reps = append(reps, c)
				fetches = append(fetches, ix.children[c.ID]...)
			}
		}
		all := unionWithin(intervals(reps, fetches), r.Start, r.End)
		f := unionWithin(intervals(fetches), r.Start, r.End)
		self = append(self, float64(r.dur()-all)/1e6)
		decode = append(decode, float64(all-f)/1e6)
		fetch = append(fetch, float64(f)/1e6)
		t.meanMs += float64(r.dur()) / 1e6
	}
	t.meanMs = ratio(t.meanMs, float64(len(reads)))
	t.rows = []row{
		{layer: "client (ReadFile self)", ms: mean(self)},
		{layer: "codec decode (ExecuteRepair self)", ms: mean(decode)},
		{layer: "codec helper fetch", ms: mean(fetch)},
		{layer: "store Get (server, attributed)", ms: attributedMs(ix.byName[spanStoreGet], kindRead, len(reads)), within: "client or fetch"},
	}
	return t
}

// serverTable splits a write or raid op, which has no client-side
// children, by the server-side spans attributed to its kind.
func serverTable(ix *traceIndex, name string, k uint8, layers ...string) table {
	ops := ix.ops(name)
	t := table{op: name, n: len(ops), meanMs: mean(durationsMs(ops))}
	var sum float64
	for _, l := range layers {
		ms := attributedMs(ix.byName[l], k, len(ops))
		sum += ms
		t.rows = append(t.rows, row{layer: l + " (server, attributed)", ms: ms})
	}
	t.rows = append([]row{{layer: "client (" + name + " self)", ms: t.meanMs - sum}}, t.rows...)
	return t
}

// fixerTable splits each fixer pass. Only one pass runs at a time and
// nothing else does, so every server-side span inside a pass's window
// belongs to it: the codec's multi-repairs, their helper fetches, and
// the store work outside them (placing repaired blocks).
func fixerTable(ix *traceIndex) table {
	passes := ix.ops(spanFixer)
	t := table{op: spanFixer, n: len(passes)}
	mr := side(ix.byName[spanMultiRepair], false)
	var fetches []span
	for _, m := range mr {
		fetches = append(fetches, ix.children[m.ID]...)
	}
	store := append(append([]span(nil), ix.byName[spanStorePut]...), ix.byName[spanStoreGet]...)
	store = append(store, ix.byName[spanStoreDelete]...)
	var self, codecSelf, fetch, storeOut []float64
	for _, p := range passes {
		all := unionWithin(intervals(mr, fetches, store), p.Start, p.End)
		codec := unionWithin(intervals(mr, fetches), p.Start, p.End)
		f := unionWithin(intervals(fetches), p.Start, p.End)
		self = append(self, float64(p.dur()-all)/1e6)
		codecSelf = append(codecSelf, float64(codec-f)/1e6)
		fetch = append(fetch, float64(f)/1e6)
		storeOut = append(storeOut, float64(all-codec)/1e6)
		t.meanMs += float64(p.dur()) / 1e6
	}
	t.meanMs = ratio(t.meanMs, float64(len(passes)))
	t.rows = []row{
		{layer: "fixer (scan, plan, lock, placement)", ms: mean(self)},
		{layer: "codec multi-repair self", ms: mean(codecSelf)},
		{layer: "codec multi-repair fetch", ms: mean(fetch)},
		{layer: "store outside codec", ms: mean(storeOut)},
	}
	return t
}

// perLayer computes the per-layer metrics and tables. a is the
// untraced half (counters, runtime, network, disk); b is the traced
// half, whose spans give the timings.
func perLayer(sp *spec, a, b *phase, disk extent.Stats) (metricSet, []table) {
	ix := indexSpans(b.spans)
	m := metricSet{}
	var tables []table

	rt := readTable(ix)
	wt := serverTable(ix, spanWrite, kindWrite, spanStorePut, spanStoreGet, spanStoreDelete)
	at := serverTable(ix, spanRaid, kindRaid, spanEncode, spanStorePut, spanStoreGet, spanStoreDelete)
	ft := fixerTable(ix)
	for _, t := range []table{rt, wt, at, ft} {
		if t.n > 0 {
			tables = append(tables, t)
		}
	}
	m.set("client.read_self_ms_mean", rt.rows[0].ms, "ms", rt.n)
	m.set("client.write_self_ms_mean", wt.rows[0].ms, "ms", wt.n)
	m.set("client.raid_self_ms_mean", at.rows[0].ms, "ms", at.n)
	m.set("client.write_ms_p50", percentile(a.writeMs, 0.5), "ms", len(a.writeMs))
	m.set("client.write_ms_p90", percentile(a.writeMs, 0.9), "ms", len(a.writeMs))
	m.set("client.raid_ms_p50", percentile(a.raidMs, 0.5), "ms", len(a.raidMs))

	// Codec: client-side repairs (degraded reads) and their fetches;
	// server-side encodes and multi-repairs.
	reps := side(ix.byName[spanRepair], true)
	var decodeSelf []float64
	var fetches []span
	for _, r := range reps {
		kids := ix.children[r.ID]
		fetches = append(fetches, kids...)
		decodeSelf = append(decodeSelf, float64(selfTime(r, kids))/1e6)
	}
	var fetchBytes int64
	for _, f := range fetches {
		fetchBytes += f.Bytes
	}
	fetchMs := durationsMs(fetches)
	m.set("codec.decode_self_ms_p50", percentile(decodeSelf, 0.5), "ms", len(decodeSelf))
	m.set("codec.fetch_ms_p50", percentile(fetchMs, 0.5), "ms", len(fetchMs))
	m.set("codec.fetch_ms_p99", percentile(fetchMs, 0.99), "ms", len(fetchMs))
	m.set("codec.fetches_per_repair", ratio(float64(len(fetches)), float64(len(reps))), "count", len(reps))
	m.set("codec.fetch_bytes_per_repair", ratio(float64(fetchBytes), float64(len(reps))), "B", len(reps))
	enc := durationsMs(ix.byName[spanEncode])
	m.set("codec.encode_ms_p50", percentile(enc, 0.5), "ms", len(enc))
	mr := side(ix.byName[spanMultiRepair], false)
	var mrSelf, mrFetch float64
	for _, r := range mr {
		kids := ix.children[r.ID]
		f := unionWithin(intervals(kids), r.Start, r.End)
		mrFetch += float64(f) / 1e6
		mrSelf += float64(r.dur()-f) / 1e6
	}
	m.set("codec.multi_repair_self_ms_per_stripe", ratio(mrSelf, float64(len(mr))), "ms", len(mr))
	m.set("codec.multi_repair_fetch_ms_per_stripe", ratio(mrFetch, float64(len(mr))), "ms", len(mr))

	// Store, under the datanode cache when one is on.
	gets, puts := ix.byName[spanStoreGet], ix.byName[spanStorePut]
	getMs, putMs := durationsMs(gets), durationsMs(puts)
	var putBytes int64
	for _, p := range puts {
		putBytes += p.Bytes
	}
	userBytes := int64(len(b.writeMs))*fileBytes + b.repairedBytes
	reads := len(ix.ops(spanRead))
	m.set("store.get_ms_p50", percentile(getMs, 0.5), "ms", len(getMs))
	m.set("store.get_ms_p99", percentile(getMs, 0.99), "ms", len(getMs))
	m.set("store.gets_per_read", ratio(attributedCount(gets, kindRead), float64(reads)), "count", reads)
	m.set("store.put_ms_p50", percentile(putMs, 0.5), "ms", len(putMs))
	m.set("store.put_ms_p99", percentile(putMs, 0.99), "ms", len(putMs))
	m.set("store.put_bytes_per_user_byte", ratio(float64(putBytes), float64(userBytes)), "ratio", len(puts))
	m.set("store.disk_bytes_per_live_byte", ratio(float64(disk.DiskBytes), float64(disk.LiveBytes)), "ratio", disk.LiveBlocks)

	// Cache and hedge, from the untraced half's counters.
	c := a.counters
	m.set("cache.client_hit_ratio", ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses)), "ratio", int(c.CacheHits+c.CacheMisses))
	m.set("cache.node_hit_ratio", ratio(float64(a.cacheHits), float64(a.cacheHits+a.cacheMiss)), "ratio", int(a.cacheHits+a.cacheMiss))
	m.set("hedge.fired_per_1k_reads", 1000*ratio(float64(c.HedgedReads), float64(c.BlocksRead)), "count", int(c.BlocksRead))
	m.set("hedge.win_ratio", ratio(float64(c.HedgeWins), float64(c.HedgedReads)), "ratio", int(c.HedgedReads))
	m.set("read.degraded_block_share", ratio(float64(c.DegradedBlocks), float64(c.BlocksRead)), "ratio", int(c.BlocksRead))

	// Fixer and network, from the untraced half.
	passes := len(a.passMs)
	var passSecs float64
	for _, p := range a.passMs {
		passSecs += p / 1e3
	}
	m.set("fixer.self_ms_per_pass", ft.rows[0].ms, "ms", ft.n)
	m.set("fixer.stripes_per_pass", ratio(float64(len(mr)), float64(len(ix.ops(spanFixer)))), "count", len(mr))
	m.set("fixer.repair_mb_per_s", ratio(float64(a.repairedBytes)/1e6, passSecs), "MB/s", passes)
	m.set("net.cross_rack_bytes_per_pass", ratio(float64(a.net.CrossRackBytes), float64(passes)), "B", passes)
	m.set("net.intra_rack_bytes_per_pass", ratio(float64(a.net.IntraRackBytes), float64(passes)), "B", passes)

	// Process, from the untraced half.
	p, ops := a.proc, float64(a.completed)
	m.set("proc.cpu_ms_per_op", ratio(float64(p.cpu)/1e6, ops), "ms", a.completed)
	m.set("proc.alloc_bytes_per_op", ratio(float64(p.allocBytes), ops), "B", a.completed)
	m.set("proc.allocs_per_op", ratio(float64(p.allocObjs), ops), "count", a.completed)
	m.set("proc.gc_cpu_frac", ratio(p.gcCPU, p.cpu.Seconds()), "ratio", a.completed)
	m.set("proc.heap_peak_mb", float64(p.heapPeak)/(1<<20), "MB", a.completed)

	opsA := ratio(float64(a.completed), a.elapsed.Seconds())
	opsB := ratio(float64(b.completed), b.elapsed.Seconds())
	m.set("trace.overhead_frac", 1-ratio(opsB, opsA), "ratio", b.completed)
	primary := rt
	if sp.repair {
		primary = ft
	}
	m.set("trace.op_ms_mean", primary.meanMs, "ms", primary.n)
	return m, tables
}
