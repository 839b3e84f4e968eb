package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed calibration. The reference box is a shared 2-vCPU VM whose
// speed drifts by ±15% over tens of seconds as other tenants come and
// go; pass times move with it (their correlation with this job, timed
// just before each pass, is about 0.8). So the pass-based workloads
// divide every end-to-end timing by the host's slowdown measured next to
// it: the time of a fixed job owned by the benchmark, relative to that
// job's time on the reference box. The job is the standard library's
// sort on preallocated buffers, so no change to the program can change
// it, and it does not allocate, so a larger heap cannot slow it through
// the GC. A divided time reads as the wall time the operation would take
// with the host at the reference speed.

// calRefSeconds is the calibration job's median time on the reference
// box (2 vCPUs, go1.24), on one goroutine and on two alike.
const calRefSeconds = 0.020

const calLen = 1 << 17 // float64s sorted per goroutine

// calibrator holds one source and one work buffer per goroutine.
type calibrator struct{ src, buf [][]float64 }

func newCalibrator(n int) *calibrator {
	c := &calibrator{}
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < n; g++ {
		s := make([]float64, calLen)
		for i := range s {
			s[i] = rng.Float64()
		}
		c.src = append(c.src, s)
		c.buf = append(c.buf, make([]float64, calLen))
	}
	return c
}

// slowdown runs the job three times on n goroutines (n at most the
// calibrator's width) and returns its median time relative to the
// reference box: 1.1 means the host is running 10% slow right now. It
// collects the heap first, so no collection left over from the caller's
// garbage competes with the job.
func (c *calibrator) slowdown(n int) float64 {
	runtime.GC()
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				copy(c.buf[g], c.src[g])
				sort.Float64s(c.buf[g])
			}(g)
		}
		wg.Wait()
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts) / calRefSeconds
}
