package main

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"uvmasim/internal/metrics"
	"uvmasim/internal/store"
)

// warmPerCold is how many warm rerun passes follow each cold pass. A
// warm pass costs about a twentieth of a cold one, so this keeps both
// medians on many samples.
const warmPerCold = 8

// timedStore wraps the store under a traced runner: it times every Get
// and Put and records a store span under the figure being computed.
type timedStore struct {
	inner store.Store
	tr    *tracer
	cur   *atomic.Int64 // the open figure span's id

	mu         sync.Mutex
	gets, puts []float64 // seconds per call
	hits       int
}

func (s *timedStore) Get(k store.Key) (store.CellDoc, bool) {
	sp := s.tr.begin(layerStore, "get", s.cur.Load())
	t0 := time.Now()
	doc, ok := s.inner.Get(k)
	d := time.Since(t0).Seconds()
	sp.end()
	s.mu.Lock()
	s.gets = append(s.gets, d)
	if ok {
		s.hits++
	}
	s.mu.Unlock()
	return doc, ok
}

func (s *timedStore) Put(k store.Key, doc store.CellDoc) error {
	sp := s.tr.begin(layerStore, "put", s.cur.Load())
	t0 := time.Now()
	err := s.inner.Put(k, doc)
	d := time.Since(t0).Seconds()
	sp.end()
	s.mu.Lock()
	s.puts = append(s.puts, d)
	s.mu.Unlock()
	return err
}

// rerunRep is one store-rerun repetition.
type rerunRep struct {
	cold float64   // seconds, divided by the host slowdown
	warm []float64 // seconds per warm pass, divided by the host slowdown
	// Traced repetitions only:
	getsPerWarm, putsPerCold, hits, gets float64
	getTimes, putTimes                   []float64
	writtenBytes                         float64
	cells, cellBusy                      float64 // per cold pass
	warmAllocBytes, warmAllocs           []float64
	warmHits, warmMisses                 float64 // memory cell cache, per warm pass
}

// runStoreRerun writes every cell of the `all` list to an empty on-disk
// store, then reruns the list from that store with fresh runners. Set-up
// computes the list's output without a store; the cold pass must
// reproduce it and every warm pass must reproduce the cold pass.
func runStoreRerun(b *bench) error {
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var ref []byte
	var setups []float64
	for i := 0; i < reps; i++ {
		f := b.slowdown(b.nproc)
		t0 := time.Now()
		out, err := renderAll(newRunner(b.seed, b.nproc, 0), nil, 0, nil, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds()/f)
		if ref != nil && !bytes.Equal(out, ref) {
			b.problem(errors.New("two storeless passes with one seed printed different bytes"))
		}
		ref = out
	}

	if !b.traced {
		freshGC()
		heap := startHeapSampler()
		got, err := rerunReps(b, ref, b.deadline(1), nil)
		peak := heap.finish()
		if err != nil {
			return err
		}
		var cold, warm []float64
		for _, r := range got {
			cold = append(cold, r.cold)
			warm = append(warm, r.warm...)
		}
		b.set("setup_s", "s", median(setups))
		b.set("main_p50_ms", "ms", 1000*median(warm))
		b.set("contrast_p50_ms", "ms", 1000*median(cold))
		b.set("peak_heap_mb", "MiB", peak)
		return nil
	}

	b.zeroLayers()
	freshGC()
	rt0 := readRuntime()
	plain, err := rerunReps(b, ref, b.deadline(0.5), nil)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	b.set("runtime.gc_cpu_frac", "ratio", gcFrac(rt0, rt1))

	ph, err := b.startPhase()
	if err != nil {
		return err
	}
	traced, err := rerunReps(b, ref, b.deadline(0.5), ph)
	if err != nil {
		return err
	}
	shares, err := ph.finish()
	if err != nil {
		return err
	}

	var plainWarm, trWarm, getTimes, putTimes, allocB, allocs []float64
	var hits, gets float64
	for _, r := range plain {
		plainWarm = append(plainWarm, r.warm...)
	}
	for _, r := range traced {
		trWarm = append(trWarm, r.warm...)
		getTimes = append(getTimes, r.getTimes...)
		putTimes = append(putTimes, r.putTimes...)
		allocB = append(allocB, r.warmAllocBytes...)
		allocs = append(allocs, r.warmAllocs...)
		hits += r.hits
		gets += r.gets
	}
	b.set("trace.overhead_frac", "ratio", median(trWarm)/median(plainWarm)-1)
	b.set("store.get_count", "count", medianOf(traced, func(r rerunRep) float64 { return r.getsPerWarm }))
	b.set("store.put_count", "count", medianOf(traced, func(r rerunRep) float64 { return r.putsPerCold }))
	b.set("store.get_us", "us", 1e6*median(getTimes))
	b.set("store.put_us", "us", 1e6*median(putTimes))
	b.set("store.written_mib", "MiB", medianOf(traced, func(r rerunRep) float64 { return r.writtenBytes })/(1<<20))
	b.set("store.hit_frac", "ratio", hits/gets)
	b.set("core.cells_simulated", "count", medianOf(traced, func(r rerunRep) float64 { return r.cells }))
	b.set("core.cell_busy_s", "s", medianOf(traced, func(r rerunRep) float64 { return r.cellBusy }))
	b.set("core.cache_hits", "count", medianOf(traced, func(r rerunRep) float64 { return r.warmHits }))
	b.set("core.cache_misses", "count", medianOf(traced, func(r rerunRep) float64 { return r.warmMisses }))
	b.set("core.alloc_mb", "MiB", median(allocB)/(1<<20))
	b.set("core.allocs", "count", median(allocs))
	b.setPassTimes(ph.times)
	b.setSimWork(sumDocs(ph.captured))
	return b.finishTraced(ph, shares)
}

// rerunReps runs repetitions until the deadline (and at least minReps),
// each in a fresh store directory under the work directory. The
// directories are removed only after the last repetition, and dirty
// pages are flushed before each cold pass and before the warm passes,
// so no pass pays for another's deletes or background writeback. In a
// traced phase the stores are timed and instrumented, the first cold
// pass captures its cells, and the warm passes feed the per-figure
// times.
func rerunReps(b *bench, ref []byte, until time.Time, ph *phase) (reps []rerunRep, err error) {
	var dirs []string
	defer func() {
		for _, d := range dirs {
			if rmErr := os.RemoveAll(d); err == nil {
				err = rmErr
			}
		}
	}()
	for len(reps) < minReps || time.Now().Before(until) {
		dir, err := os.MkdirTemp(b.work, "store-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		syscall.Sync()
		reps = append(reps, rerunRep1(b, ref, dir, ph, len(reps) == 0))
	}
	return reps, nil
}

// storePass is one `all` pass over an on-disk store.
type storePass struct {
	out                []byte
	secs               float64
	store              *timedStore // nil in untraced phases
	allocBytes, allocs float64
	hits, misses       float64 // memory cell cache
	simulated, busy    float64 // cells that missed the store, and their seconds
}

// runStorePass runs `all` on a fresh runner over a freshly opened store
// on dir, as a `uvmbench -json -cache-dir dir all` process would. In a
// traced phase the store is timed, its writes are counted into reg, a
// capture store records the cells if capture is set, and pt (if set)
// receives the per-figure times.
func runStorePass(b *bench, dir, name string, ph *phase, reg *metrics.Registry, cur *atomic.Int64, capture bool, pt *passTimes) (storePass, error) {
	var p storePass
	st, err := store.Open(dir)
	if err != nil {
		return p, err
	}
	r := newRunner(b.seed, b.nproc, 0)
	r.Store = st
	if ph != nil {
		st.Instrument(reg)
		p.store = &timedStore{inner: st, tr: ph.tr, cur: cur}
		r.Store = p.store
		if capture {
			r.Capture = store.NewMem()
		}
	}
	freshGC()
	ps := ph.tracer().begin(layerPass, name, ph.rootID())
	rt0 := readRuntime()
	t0 := time.Now()
	p.out, err = renderAll(r, ph.tracer(), ps.id, cur, pt)
	p.secs = time.Since(t0).Seconds()
	rt1 := readRuntime()
	ps.end()
	p.allocBytes = float64(rt1.allocBytes - rt0.allocBytes)
	p.allocs = float64(rt1.allocObjects - rt0.allocObjects)
	p.hits, p.misses = float64(r.CacheHits()), float64(r.CacheMisses())
	p.simulated, p.busy = float64(r.StoreMisses()), r.SimulatedSeconds()
	if r.Capture != nil {
		ph.captured = append(ph.captured, r.Capture.Docs()...)
	}
	return p, err
}

// rerunRep1 runs one repetition in dir: a cold pass, then warmPerCold
// warm passes.
func rerunRep1(b *bench, ref []byte, dir string, ph *phase, first bool) rerunRep {
	var rep rerunRep
	var cur atomic.Int64
	var reg *metrics.Registry
	var warmTimes *passTimes
	if ph != nil {
		reg = metrics.New()
		warmTimes = ph.times
	}
	f := b.slowdown(b.nproc)
	cold, err := runStorePass(b, dir, "cold", ph, reg, &cur, first, nil)
	if err == nil && !bytes.Equal(cold.out, ref) {
		err = errors.New("cold store-backed pass differs from the storeless output")
	}
	b.op(err)
	rep.cold = cold.secs / f
	if err != nil {
		return rep // a warm rerun of a bad cold pass checks nothing
	}
	if ts := cold.store; ts != nil {
		rep.putsPerCold = float64(len(ts.puts))
		rep.putTimes = ts.puts
		rep.gets += float64(len(ts.gets))
		rep.hits += float64(ts.hits)
		rep.writtenBytes = float64(reg.Counter("uvmbench_store_written_bytes_total", "").Value())
		rep.cells, rep.cellBusy = cold.simulated, cold.busy
	}
	syscall.Sync() // the warm passes must not compete with the cold pass's writeback
	f = b.slowdown(b.nproc)
	for i := 0; i < warmPerCold; i++ {
		warm, err := runStorePass(b, dir, "warm", ph, reg, &cur, false, warmTimes)
		if err == nil && !bytes.Equal(warm.out, cold.out) {
			err = errors.New("warm rerun differs from the cold pass")
		}
		b.op(err)
		rep.warm = append(rep.warm, warm.secs/f)
		if ts := warm.store; ts != nil {
			rep.getsPerWarm = float64(len(ts.gets))
			rep.getTimes = append(rep.getTimes, ts.gets...)
			rep.gets += float64(len(ts.gets))
			rep.hits += float64(ts.hits)
			rep.warmAllocBytes = append(rep.warmAllocBytes, warm.allocBytes)
			rep.warmAllocs = append(rep.warmAllocs, warm.allocs)
			rep.warmHits, rep.warmMisses = warm.hits, warm.misses
		}
	}
	return rep
}
