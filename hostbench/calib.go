package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The shared host's speed drifts with its neighbours' load by 15–30%
// within minutes, and every CPU time the benchmark takes drifts with
// it. So the timed parts sample the host's speed at least every
// windowS seconds with a fixed kernel, and scale each CPU time and
// latency measured between two samples to nominal host speed by the
// mean of the two, raised to the workloads' sensitivity. The kernel
// uses only the standard library and inputs of its own, so no change
// to the repository's code, and no seed, can move it.
const (
	windowS     = 1   // longest stretch of timed work between speed samples, seconds
	calibBodies = 64  // JSON documents the kernel scans and hashes
	calibDocLen = 384 // extents per document, as in a plan request
	calibReps   = 5   // kernel runs per speed sample; the sample is their median
	// nominalKernelS is the kernel's thread CPU time at nominal host
	// speed: a typical sample on a two-vCPU Intel Xeon VM (2.0 GHz),
	// where the median sample of a run ranged from 3.2 to 5.3 ms.
	nominalKernelS = 0.0052
	// sensitivity is how much more than the kernel the workloads' CPU
	// times move with the host's speed: across runs minutes apart,
	// the log of every workload's timings against the log of the run's
	// median kernel time had slopes of 1.1 to 1.5. Scaled by the plain
	// ratio, runs in a fast stretch still read up to 25% fast.
	sensitivity = 1.25
)

// hostSpeed samples the host's speed and scales measurements to
// nominal speed. Measurements are handed to it as they are taken and
// scaled when the sample after them is taken.
type hostSpeed struct {
	bodies  [][]byte
	last    float64   // kernel seconds at the latest sample
	samples []float64 // kernel seconds, every sample
	at      time.Time // when the latest sample ended
	spentS  float64   // wall seconds spent sampling
	pending []func(f float64)
}

// newHostSpeed builds the kernel's inputs and takes the first sample.
func newHostSpeed() *hostSpeed {
	type extent struct {
		Off int64 `json:"off"`
		Len int64 `json:"len"`
	}
	h := &hostSpeed{}
	for i := 0; i < calibBodies; i++ {
		doc := make([]extent, calibDocLen)
		for j := range doc {
			doc[j] = extent{Off: int64(j) << 20, Len: 64<<10 + int64(i)}
		}
		b, err := json.Marshal(doc)
		if err != nil {
			panic(err)
		}
		h.bodies = append(h.bodies, b)
	}
	h.sample()
	return h
}

// kernelS returns the median thread CPU seconds of calibReps runs of
// the kernel: scan and hash every document, as a request's decode and
// fingerprint do, without allocating, so the collector's state cannot
// change its cost. The goroutine holds its OS thread throughout, so
// time the thread spent running other goroutines or waiting for a CPU
// is not counted; what remains is how fast the host executes.
func (h *hostSpeed) kernelS() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ts := make([]float64, calibReps)
	for i := range ts {
		t0 := threadCPU()
		for _, b := range h.bodies {
			if !json.Valid(b) {
				panic("hostbench: calibration document is not JSON")
			}
			sha256.Sum256(b)
		}
		ts[i] = threadCPU() - t0
	}
	return median(ts)
}

// sample measures the host's speed and returns the factor that scales
// what was measured since the previous sample to nominal speed. A nil
// h does not sample and scales by 1.
func (h *hostSpeed) sample() float64 {
	if h == nil {
		return 1
	}
	t0 := time.Now()
	k := h.kernelS()
	mean := k
	if h.last > 0 {
		mean = (h.last + k) / 2
	}
	f := math.Pow(nominalKernelS/mean, sensitivity)
	h.last, h.at = k, time.Now()
	h.samples = append(h.samples, k)
	h.spentS += h.at.Sub(t0).Seconds()
	return f
}

// scale queues apply to receive the scale factor of the measurement
// just taken, and samples the host's speed once windowS seconds have
// passed since the previous sample. A nil h leaves the measurement as
// it is.
func (h *hostSpeed) scale(apply func(f float64)) {
	if h == nil {
		return
	}
	h.pending = append(h.pending, apply)
	if since(h.at) >= windowS {
		h.flush()
	}
}

// flush samples the host's speed and scales every queued measurement.
func (h *hostSpeed) flush() {
	if h == nil || len(h.pending) == 0 {
		return
	}
	f := h.sample()
	for _, apply := range h.pending {
		apply(f)
	}
	h.pending = h.pending[:0]
}

// print writes the host's speed over the samples so far.
func (h *hostSpeed) print() {
	fmt.Printf("host speed: %d samples, kernel median %.3f ms (nominal %.3f ms)\n",
		len(h.samples), 1e3*median(h.samples), 1e3*nominalKernelS)
}

// spent returns the wall seconds spent sampling so far; 0 for a nil h.
func (h *hostSpeed) spent() float64 {
	if h == nil {
		return 0
	}
	return h.spentS
}

// threadCPU returns the calling thread's CPU seconds.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e9
}
