// Latency-aware replica selection and hedged degraded reads. Every
// datanode RPC feeds a per-machine EWMA; replica orderings put the
// observably fast machines first (rotating among near-ties for load
// spread) instead of blind rotation. On top of the ordering sits the
// hedged variant of the read pipeline's network stages: when a striped
// block's replica chain is slower than a configured or quantile-derived
// delay, the client starts the stripe reconstruction in parallel and
// returns whichever stage answers first. A slow-but-alive datanode then
// costs one hedge delay, not a full RPC timeout, and is never declared
// dead for being slow.
package serve

import (
	"sort"
	"sync"
	"time"
)

const (
	// ewmaAlpha weighs the newest latency sample: high enough to track
	// a node that turns slow within a few reads, low enough that one
	// outlier does not reorder replicas.
	ewmaAlpha = 0.3

	// latWindow is the ring of recent per-RPC latencies backing the
	// adaptive hedge delay quantile.
	latWindow = 128

	// latencySlack is the near-tie band for replica ordering: machines
	// within this factor of the fastest EWMA rotate as equals, so small
	// jitter does not funnel every read to one replica.
	latencySlack = 1.2

	// hedgeQuantile and hedgeDelayFactor derive the adaptive hedge
	// delay: fire when the primary is slower than hedgeDelayFactor
	// times the recent p95 — clearly an outlier, not jitter.
	hedgeQuantile    = 0.95
	hedgeDelayFactor = 3

	// coldHedgeDelay is the hedge delay before any latency samples
	// exist, and the floor under the adaptive delay.
	coldHedgeDelay = 50 * time.Millisecond
	minHedgeDelay  = 2 * time.Millisecond
)

// latencyTracker keeps a per-machine EWMA of datanode RPC latencies
// plus a ring of recent samples for the adaptive hedge-delay quantile.
type latencyTracker struct {
	mu   sync.Mutex
	ewma []float64 // nanos per machine; 0 = never sampled
	win  []time.Duration
	next int
	full bool
}

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{win: make([]time.Duration, latWindow)}
}

// observe folds one RPC round-trip time into the machine's EWMA and
// the recent-sample ring.
func (l *latencyTracker) observe(machine int, d time.Duration) {
	if machine < 0 || d <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for machine >= len(l.ewma) {
		l.ewma = append(l.ewma, 0)
	}
	if l.ewma[machine] == 0 {
		l.ewma[machine] = float64(d)
	} else {
		l.ewma[machine] = (1-ewmaAlpha)*l.ewma[machine] + ewmaAlpha*float64(d)
	}
	l.win[l.next] = d
	l.next = (l.next + 1) % len(l.win)
	if l.next == 0 {
		l.full = true
	}
}

// estimate returns the machine's EWMA latency in nanos (0 = never
// sampled).
func (l *latencyTracker) estimate(machine int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if machine < 0 || machine >= len(l.ewma) {
		return 0
	}
	return l.ewma[machine]
}

// quantile returns the q-quantile of the recent latency window, or 0
// with no samples yet.
func (l *latencyTracker) quantile(q float64) time.Duration {
	l.mu.Lock()
	n := l.next
	if l.full {
		n = len(l.win)
	}
	samples := append([]time.Duration(nil), l.win[:n]...)
	l.mu.Unlock()
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(q * float64(len(samples)))
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// replicaOrder returns the machines to try, fastest first: machines
// whose EWMA sits within latencySlack of the best — plus never-sampled
// ones, which deserve a probe — form a front tier rotated by the
// client's read counter for load spread; the measurably slower rest
// follow in ascending latency order. With no samples at all this
// degrades to exactly the old seeded rotation.
func (c *Client) replicaOrder(locations []int) []int {
	n := len(locations)
	if n <= 1 {
		return locations
	}
	est := make([]float64, n)
	best := 0.0
	for i, m := range locations {
		est[i] = c.lat.estimate(m)
		if est[i] > 0 && (best == 0 || est[i] < best) {
			best = est[i]
		}
	}
	fast := make([]int, 0, n)
	var slow []int
	for i, m := range locations {
		if est[i] == 0 || est[i] <= best*latencySlack {
			fast = append(fast, m)
		} else {
			slow = append(slow, i)
		}
	}
	sort.Slice(slow, func(a, b int) bool { return est[slow[a]] < est[slow[b]] })
	out := make([]int, 0, n)
	start := int(c.rr.Add(1)) % len(fast)
	for i := 0; i < len(fast); i++ {
		out = append(out, fast[(start+i)%len(fast)])
	}
	for _, i := range slow {
		out = append(out, locations[i])
	}
	return out
}

// hedgeDelayNow resolves the delay before a slow primary triggers a
// parallel reconstruction: the configured delay, or (when configured
// adaptive) a multiple of the recent latency p95.
func (c *Client) hedgeDelayNow() time.Duration {
	if c.hedgeDelay > 0 {
		return c.hedgeDelay
	}
	p := c.lat.quantile(hedgeQuantile)
	if p == 0 {
		return coldHedgeDelay
	}
	d := p * hedgeDelayFactor
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d
}

// hedgeResult is one arm's answer in the primary-vs-reconstruction
// race. Channels carrying it are buffered so the losing arm's
// goroutine sends and exits instead of leaking.
type hedgeResult struct {
	data []byte
	err  error
}

// hedgedFetch is fetchBlock for a hedging client: the replica chain
// (the primary) runs in a goroutine, and once the hedge delay passes
// with it still pending, reconstruction races it; degraded reports
// whether reconstruction served the read. The timer only arms the
// hedge — a primary that answers before it fires costs nothing extra. The losing
// stage finishes into a buffered channel and its result is dropped;
// neither is cancelled mid-RPC, so a hedge never poisons the winner's
// pooled connection. A call runs at most one reconstruction: a primary
// that fails before the timer fires gets a plain inline one, and a
// hedge that fails first leaves the primary as the last chance.
func (c *Client) hedgedFetch(b wireBlock) (data []byte, degraded bool, err error) {
	primary := make(chan hedgeResult, 1)
	go func() {
		data, err := c.readReplicas(b.Locations, b.ID, 0, b.Size, nil)
		primary <- hedgeResult{data: data, err: err}
	}()

	timer := time.NewTimer(c.hedgeDelayNow())
	defer timer.Stop()
	timerC := timer.C // nil once the hedge has fired
	var hedge chan hedgeResult
	for {
		select {
		case r := <-primary:
			if r.err == nil {
				return r.data, false, nil
			}
			if timerC != nil {
				// The whole replica chain failed before the hedge
				// armed: this is a plain degraded read, not a hedge.
				data, err := c.reconstruct(b)
				return data, err == nil, err
			}
			primary, err = nil, r.err
		case <-timerC:
			timerC = nil
			c.cHedgedReads.Inc()
			hedge = make(chan hedgeResult, 1)
			go func() {
				data, err := c.reconstruct(b)
				hedge <- hedgeResult{data: data, err: err}
			}()
		case r := <-hedge:
			if r.err == nil {
				if primary != nil {
					// Reconstruction beat a still-pending primary —
					// the hedge paid off.
					c.cHedgeWins.Inc()
				}
				return r.data, true, nil
			}
			hedge, err = nil, r.err
		}
		if primary == nil && hedge == nil {
			return nil, false, err
		}
	}
}
