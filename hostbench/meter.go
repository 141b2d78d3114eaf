package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// heapSample is the runtime metric the peak-heap sampler reads: the
// heap marked live by the most recent collection. Its peak is the
// memory the timed part needed, independent of when collections ran.
const heapSample = "/gc/heap/live:bytes"

// meter measures host allocations and peak heap around a timed part.
type meter struct {
	before runtime.MemStats
	peak   atomic.Uint64 // highest live-heap sample in the current window
	stop   chan struct{}
	done   chan struct{} // closed when the sampler has exited
}

// startMeter collects garbage, so the live-heap figure no longer
// reflects what ran before, snapshots the allocation counters, and
// starts sampling the heap every millisecond until finish.
func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: heapSample}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for old := m.peak.Load(); v > old && !m.peak.CompareAndSwap(old, v); old = m.peak.Load() {
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// window returns the highest live heap sampled since the previous
// window began (or the meter started) and begins a new window.
func (m *meter) window() uint64 { return m.peak.Swap(0) }

// hostCost is what a timed part cost the host.
type hostCost struct {
	allocs     uint64 // heap objects allocated
	allocBytes uint64 // heap bytes allocated
	peakHeap   uint64 // highest live-heap bytes sampled in the last window
}

// finish stops the sampler, waits for it, and returns the deltas.
func (m *meter) finish() hostCost {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	close(m.stop)
	<-m.done
	return hostCost{
		allocs:     after.Mallocs - m.before.Mallocs,
		allocBytes: after.TotalAlloc - m.before.TotalAlloc,
		peakHeap:   m.window(),
	}
}

// cpuNow returns the process's user plus system CPU seconds so far.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
