package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"uvmasim/internal/metrics"
	"uvmasim/internal/store"
)

// suiteRep is one suite-cold repetition: a pass at nproc workers and a
// serial pass, each with a fresh runner and no store.
type suiteRep struct {
	par, serial   float64 // seconds
	parF, serialF float64 // host slowdown measured before each pass
	// Traced passes only:
	cells, hits, misses float64 // per parallel pass
	busy, iterBusy      float64 // cell and iteration seconds per parallel pass
	allocBytes, allocs  float64 // per parallel pass
}

// runSuiteCold regenerates the `all` figure list from scratch, the
// reproduction's main job. Set-up computes the reference artifact with
// the uvmbench CLI; every pass must reproduce it byte for byte.
func runSuiteCold(b *bench) error {
	ref, setupS, err := suiteSetup(b)
	if err != nil {
		return err
	}
	want := digest(ref)
	if !b.traced {
		freshGC()
		heap := startHeapSampler()
		reps := suiteReps(b, want, b.deadline(1), nil)
		peak := heap.finish()
		b.set("setup_s", "s", setupS)
		b.set("main_p50_ms", "ms", 1000*medianOf(reps, func(r suiteRep) float64 { return r.par / r.parF }))
		b.set("contrast_p50_ms", "ms", 1000*medianOf(reps, func(r suiteRep) float64 { return r.serial / r.serialF }))
		b.set("peak_heap_mb", "MiB", peak)
		return nil
	}

	b.zeroLayers()
	// Untraced half: the baseline for the tracing overhead and the GC share.
	freshGC()
	rt0 := readRuntime()
	plain := suiteReps(b, want, b.deadline(0.5), nil)
	rt1 := readRuntime()
	b.set("runtime.gc_cpu_frac", "ratio", gcFrac(rt0, rt1))

	// Traced half, under the CPU profiler.
	ph, err := b.startPhase()
	if err != nil {
		return err
	}
	traced := suiteReps(b, want, b.deadline(0.5), ph)
	shares, err := ph.finish()
	if err != nil {
		return err
	}

	par := func(r suiteRep) float64 { return r.par / r.parF }
	b.set("trace.overhead_frac", "ratio", medianOf(traced, par)/medianOf(plain, par)-1)
	b.set("core.cells_simulated", "count", medianOf(traced, func(r suiteRep) float64 { return r.cells }))
	b.set("core.cache_hits", "count", medianOf(traced, func(r suiteRep) float64 { return r.hits }))
	b.set("core.cache_misses", "count", medianOf(traced, func(r suiteRep) float64 { return r.misses }))
	b.set("core.cell_busy_s", "s", medianOf(traced, func(r suiteRep) float64 { return r.busy }))
	b.set("core.worker_idle_frac", "ratio", medianOf(traced, func(r suiteRep) float64 {
		return 1 - r.iterBusy/(r.par*float64(b.nproc))
	}))
	b.set("core.alloc_mb", "MiB", medianOf(traced, func(r suiteRep) float64 { return r.allocBytes / (1 << 20) }))
	b.set("core.allocs", "count", medianOf(traced, func(r suiteRep) float64 { return r.allocs }))
	b.setPassTimes(ph.times)
	b.setSimWork(sumDocs(ph.captured))
	return b.finishTraced(ph, shares)
}

// suiteSetup computes the reference artifact with the CLI, setupReps
// times in an end-to-end run (once in a traced run), and returns it
// with the median set-up time.
func suiteSetup(b *bench) ([]byte, float64, error) {
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var ref []byte
	var times []float64
	for i := 0; i < reps; i++ {
		f := b.slowdown(b.nproc)
		t0 := time.Now()
		out, err := cliReference(b.cli, b.seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds()/f)
		if ref != nil && !bytes.Equal(out, ref) {
			b.problem(errors.New("uvmbench -json all printed different bytes on two runs with one seed"))
		}
		ref = out
	}
	if len(ref) == 0 {
		return nil, 0, errors.New("uvmbench -json all printed nothing")
	}
	return ref, median(times), nil
}

// suiteReps runs repetitions until the deadline (and at least minReps).
// In a traced phase each pass gets a pass span, the runners are
// instrumented, and the first parallel pass captures its cells.
func suiteReps(b *bench, want [32]byte, until time.Time, ph *phase) []suiteRep {
	var reps []suiteRep
	for len(reps) < minReps || time.Now().Before(until) {
		var rep suiteRep
		for _, serial := range []bool{false, true} {
			r, name, width := newRunner(b.seed, b.nproc, 0), "parallel", b.nproc
			if serial {
				r, name, width = newRunner(b.seed, 1, 1), "serial", 1
			}
			var reg *metrics.Registry
			var pt *passTimes
			if ph != nil && !serial {
				reg = metrics.New()
				r.InstrumentMetrics(reg)
				if len(reps) == 0 {
					r.Capture = store.NewMem()
				}
				pt = ph.times
			}
			f := b.slowdown(width) // collects the previous pass's garbage first
			ps := ph.tracer().begin(layerPass, name, ph.rootID())
			rt0 := readRuntime()
			t0 := time.Now()
			out, err := renderAll(r, ph.tracer(), ps.id, nil, pt)
			dt := time.Since(t0).Seconds()
			rt1 := readRuntime()
			ps.end()
			if err == nil && digest(out) != want {
				err = fmt.Errorf("%s pass output differs from uvmbench -json -seed %d all", name, b.seed)
			}
			b.op(err)
			if serial {
				rep.serial, rep.serialF = dt, f
				continue
			}
			rep.par, rep.parF = dt, f
			if reg != nil {
				rep.cells = float64(reg.Counter("uvmbench_cells_simulated_total", "").Value())
				rep.hits = float64(r.CacheHits())
				rep.misses = float64(r.CacheMisses())
				rep.busy = r.SimulatedSeconds()
				rep.iterBusy = reg.Histogram("uvmbench_iteration_seconds", "", nil).Sum()
				rep.allocBytes = float64(rt1.allocBytes - rt0.allocBytes)
				rep.allocs = float64(rt1.allocObjects - rt0.allocObjects)
				if r.Capture != nil {
					ph.captured = append(ph.captured, r.Capture.Docs()...)
				}
			}
		}
		reps = append(reps, rep)
	}
	return reps
}
