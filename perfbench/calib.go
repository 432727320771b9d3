package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The bench machine's speed drifts with what its neighbours on the host
// run: over twelve minutes of one erdos-tail configuration, the CPU time
// of a trial moved by up to 44% between 20-second windows, with no
// change to the work. A fixed reference kernel that belongs to the
// benchmark, run in slices between the trials it measures, slowed and
// sped up with it (correlation 0.92 over 5-second blocks). The gated
// CPU times are therefore rescaled to a nominal machine speed: a
// measured CPU time t, over a stretch whose reference slices averaged s
// of CPU each, is reported as t · refSliceCPU / s. The reference kernel
// does not call the program, so a change to the program moves the
// rescaled time as much as the raw one. The tracking is not exact:
// between a slow and a fast period of the host, in which the raw CPU
// time per erdos-tail trial differed by a factor of 2.6, the rescaled
// one differed by 13% (4% or less on the other workloads), which the
// 0.22 bound absorbs.

const (
	// refIters is the per-worker iteration count of one reference slice.
	refIters = 3_200_000
	// refSliceCPU is the nominal CPU time of one slice (all workers),
	// within the 100-250 ms a slice costs on the 2-vCPU bench guest.
	refSliceCPU = 160 * time.Millisecond
	// calEvery is the wall time of measured work between two slices.
	calEvery = 500 * time.Millisecond
	// rusageThread is Linux's RUSAGE_THREAD.
	rusageThread = 1
)

// calibrator runs reference slices and keeps their CPU times.
type calibrator struct {
	tally [][]int32 // one 64 Ki-entry table per worker
	sink  []float64
	last  time.Time // end of the latest slice

	sliceCPU  time.Duration // summed worker-thread CPU of the slices
	slices    int
	procCPU   time.Duration // process CPU spent while slices ran
	sliceWall time.Duration
}

func newCalibrator() *calibrator {
	w := runtime.GOMAXPROCS(0)
	c := &calibrator{tally: make([][]int32, w), sink: make([]float64, w)}
	for i := range c.tally {
		c.tally[i] = make([]int32, 1<<16)
	}
	return c
}

func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slice runs the reference kernel once on every worker, each on its own
// locked OS thread, and records the threads' CPU time. The kernel is a
// geometric skip walk (the shape of Erdos-Renyi row sampling) that
// increments a cache-resident table: compute and memory traffic in
// about the proportions of a trial.
func (c *calibrator) slice() {
	p0, w0 := cpuTime(), time.Now()
	cpus := make([]time.Duration, len(c.tally))
	var wg sync.WaitGroup
	for w := range c.tally {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			t := c.tally[w]
			mask := len(t) - 1
			x := uint64(w)*0x9e3779b97f4a7c15 + 1
			pos := 0
			var acc float64
			for range refIters {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				u := float64(x>>11) / (1 << 53)
				pos = (pos + int(math.Log1p(-u)/-0.0039) + 1) & mask
				t[pos]++
				acc += float64(t[(pos*7919)&mask])
			}
			c.sink[w] += acc
			cpus[w] = threadCPU() - t0
		}()
	}
	wg.Wait()
	for _, d := range cpus {
		c.sliceCPU += d
	}
	c.slices++
	c.procCPU += cpuTime() - p0
	c.last = time.Now()
	c.sliceWall += c.last.Sub(w0)
}

// tick runs a slice when calEvery of wall time has passed since the
// latest one. A nil calibrator does nothing.
func (c *calibrator) tick() {
	if c != nil && time.Since(c.last) >= calEvery {
		c.slice()
	}
}

// factor is refSliceCPU over the mean slice CPU: the rescaling of CPU
// times measured among these slices to the nominal speed.
func (c *calibrator) factor() float64 {
	if c.slices == 0 {
		return 1
	}
	return float64(refSliceCPU) * float64(c.slices) / float64(c.sliceCPU)
}
