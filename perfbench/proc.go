package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Go runtime metrics read around a measurement window. The process
// hosts the namenode, every datanode and the workers, so these cover
// the whole system.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
)

// procSnap is a point-in-time reading of the process counters.
type procSnap struct {
	cpu        time.Duration // user + system, from getrusage
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
}

// procStats is the difference of two snapshots plus the heap peak.
type procStats struct {
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	heapPeak   uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	var s procSnap
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCPU}}
	metrics.Read(samples)
	s.allocBytes = samples[0].Value.Uint64()
	s.allocObjs = samples[1].Value.Uint64()
	s.gcCPU = samples[2].Value.Float64()
	return s
}

func (s procSnap) since(p procSnap, heapPeak uint64) procStats {
	return procStats{
		cpu:        s.cpu - p.cpu,
		allocBytes: s.allocBytes - p.allocBytes,
		allocObjs:  s.allocObjs - p.allocObjs,
		gcCPU:      s.gcCPU - p.gcCPU,
		heapPeak:   heapPeak,
	}
}

// sampleHeap polls the live heap every 20ms until the returned stop
// function is called; stop waits for the poller to exit and returns
// the peak it saw.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	read := func() {
		s := []metrics.Sample{{Name: mHeapLive}}
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}
