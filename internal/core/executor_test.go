package core

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvmasim/internal/cuda"
	"uvmasim/internal/store"
	"uvmasim/internal/workloads"
)

// TestForEachInlineFastPath pins the saturated-pool contract: when no
// spare worker token can be acquired — effective parallelism 1, a
// zero-value Runner, or a nested fan-out whose pool is drained — forEach
// runs inline on the calling goroutine, visits every index in order, and
// reports the lowest-index error exactly like the legacy serial loop.
func TestForEachInlineFastPath(t *testing.T) {
	t.Run("parallelism1", func(t *testing.T) {
		r := testRunner(1)
		r.Parallelism = 1
		var got []int
		if err := r.forEach(5, func(i int) error {
			got = append(got, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("inline path visited %v, want in-order 0..4", got)
			}
		}
	})

	t.Run("zeroValueRunner", func(t *testing.T) {
		var r Runner
		r.Parallelism = 4
		n := 0
		if err := r.forEach(3, func(i int) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("ran %d of 3 calls", n)
		}
	})

	t.Run("drainedPool", func(t *testing.T) {
		r := testRunner(1)
		r.Parallelism = 4
		// Drain every spare token: the next fan-out cannot spawn helpers
		// and must fall back to the inline loop. The append below is
		// unsynchronized on purpose — the race detector turns any
		// accidental parallel execution into a test failure.
		for r.exec.acquire(r.parallelism()) {
		}
		var got []int
		if err := r.forEach(6, func(i int) error {
			got = append(got, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("drained-pool fan-out visited %v, want in-order 0..5", got)
			}
		}
	})

	t.Run("firstError", func(t *testing.T) {
		r := testRunner(1)
		r.Parallelism = 1
		boom := errors.New("boom")
		calls := 0
		err := r.forEach(5, func(i int) error {
			calls++
			if i >= 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got err %v, want boom", err)
		}
		if calls != 3 {
			t.Fatalf("inline path made %d calls, want 3 (stop at first error)", calls)
		}
	})
}

// TestForEachInlineAllocFree: the fast path must not pay for the fan-out
// machinery (error slice, atomic cursor, goroutines) it does not use.
func TestForEachInlineAllocFree(t *testing.T) {
	r := testRunner(1)
	r.Parallelism = 1
	fn := func(i int) error { return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := r.forEach(8, fn); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("inline forEach allocates %.1f per call, want 0", allocs)
	}
}

// TestForEachSaturatedDeterminism: a study running entirely on the
// drained-pool inline path renders byte-identically to the serial and
// wide-pool paths (TestParallelDeterminism covers those two).
func TestForEachSaturatedDeterminism(t *testing.T) {
	render := func(r *Runner) string {
		study, err := r.BreakdownComparison(workloads.Micro()[:4], workloads.Large)
		if err != nil {
			t.Fatal(err)
		}
		return study.Render("Figure 7")
	}
	serial := testRunner(3)
	serial.Parallelism = 1
	want := render(serial)

	drained := testRunner(3)
	drained.Parallelism = 8
	for drained.exec.acquire(drained.parallelism()) {
	}
	if got := render(drained); got != want {
		t.Errorf("drained-pool output diverges from serial\nserial:\n%s\ndrained:\n%s", want, got)
	}
}

// TestCellCacheDropsFailedCells: a cell whose computation panics or
// errors is reported as an error naming the cell, is never written to
// the store, and is recomputed by the next caller instead of being
// served as a cached zero Result.
func TestCellCacheDropsFailedCells(t *testing.T) {
	mem := store.NewMem()
	r := storeRunner(mem)
	calls := 0
	good := func() (Result, error) {
		calls++
		return Result{Workload: "flaky", Breakdowns: make([]cuda.Breakdown, 2)}, nil
	}
	failures := map[string]func() (Result, error){
		"panic": func() (Result, error) { panic("simulated fault") },
		"error": func() (Result, error) { return Result{}, errors.New("simulated error") },
	}
	for name, fail := range failures {
		t.Run(name, func(t *testing.T) {
			kind := "flaky-" + name
			_, err := r.cached(kind, cuda.UVM, workloads.Small, fail)
			if err == nil {
				t.Fatal("failed cell returned no error")
			}
			if name == "panic" && !strings.Contains(err.Error(), kind) {
				t.Errorf("panic error %q does not name the cell", err)
			}
			if n := len(mem.Docs()); n != 0 {
				t.Fatalf("failed cell written to the store (%d docs)", n)
			}
			calls = 0
			res, err := r.cached(kind, cuda.UVM, workloads.Small, good)
			if err != nil || calls != 1 || res.Workload != "flaky" {
				t.Errorf("retry after failure: calls %d, workload %q, err %v; want a recompute", calls, res.Workload, err)
			}
			if _, err := r.cached(kind, cuda.UVM, workloads.Small, good); err != nil || calls != 1 {
				t.Errorf("successful cell not cached: calls %d, err %v", calls, err)
			}
			mem = store.NewMem()
			r.Store = mem
		})
	}

	// Concurrent callers of a failing cell each get an error — either
	// their own or the shared one they waited on — never a zero Result.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = r.cached("flaky-concurrent", cuda.UVM, workloads.Small, failures["panic"])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("concurrent caller %d got no error from a panicking cell", i)
		}
	}
}

// panicWorkload panics in every iteration. The first two calls wait for
// each other (bounded by a timeout), so they run on two goroutines and
// at least one of them is a fan-out worker.
type panicWorkload struct {
	calls  atomic.Int32
	paired chan struct{}
}

func (w *panicWorkload) Name() string    { return "panicky" }
func (w *panicWorkload) Domain() string  { return "test" }
func (w *panicWorkload) Validate() error { return nil }

func (w *panicWorkload) Run(*cuda.Context, workloads.Size) error {
	if w.calls.Add(1) == 2 {
		close(w.paired)
	}
	select {
	case <-w.paired:
	case <-time.After(5 * time.Second):
	}
	panic("simulated workload fault")
}

// TestFanoutWorkerPanicIsCellError: a workload that panics inside an
// iteration block run by a fan-out worker goroutine (-itpar > 1) fails
// its cell with an error naming the cell instead of crashing the
// process.
func TestFanoutWorkerPanicIsCellError(t *testing.T) {
	r := testRunner(4)
	r.Parallelism, r.IterParallelism = 4, 4
	r.Setups = []cuda.Setup{cuda.UVM}
	w := &panicWorkload{paired: make(chan struct{})}
	_, err := r.Distributions([]workloads.Workload{w}, []workloads.Size{workloads.Small})
	if err == nil || !strings.Contains(err.Error(), "core: cell panicky/") ||
		!strings.Contains(err.Error(), "simulated workload fault") {
		t.Fatalf("panicking fan-out iteration: err %v, want an error naming the cell", err)
	}
	if n := w.calls.Load(); n < 2 {
		t.Errorf("workload ran %d iterations, want the fan-out to reach at least 2", n)
	}
}
