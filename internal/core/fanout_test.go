package core

import (
	"reflect"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// Determinism tests for the intra-cell iteration fan-out: splitting a
// cell's iterations across worker contexts must leave every observable
// output — per-iteration breakdowns, the final-iteration counters
// snapshot, whole figure documents — byte-identical to the serial loop.

// TestFanoutCountersMatchSerial pins the Result.Counters contract: the
// counters snapshot comes from the final iteration, whether that
// iteration ran on the caller's context (serial) or on the last block's
// worker context (fan-out). Every setup is checked because each drives
// a different counter mix (fault counts, prefetch traffic, memcpy
// bytes).
func TestFanoutCountersMatchSerial(t *testing.T) {
	w, err := workloads.ByName("vector_rand")
	if err != nil {
		t.Fatal(err)
	}
	serial := testRunner(6)
	serial.Parallelism = 1
	for _, setup := range cuda.Registered() {
		setup := setup
		t.Run(setup.String(), func(t *testing.T) {
			want, err := serial.measureCell(w, setup, workloads.Large)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []struct {
				name       string
				par, itpar int
			}{
				{"itpar", 1, 4},
				{"par+itpar", 4, 4},
				{"itpar>iters", 1, 16},
			} {
				fan := testRunner(6)
				fan.Parallelism = par.par
				fan.IterParallelism = par.itpar
				got, err := fan.measureCell(w, setup, workloads.Large)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Counters, want.Counters) {
					t.Errorf("%s: fan-out counters differ from serial final-iteration counters", par.name)
				}
				if !reflect.DeepEqual(got.Breakdowns, want.Breakdowns) {
					t.Errorf("%s: fan-out breakdowns differ from serial", par.name)
				}
			}
		})
	}
}

// TestFanoutFigureDeterminism runs a whole study — cell-level fan-out,
// iteration-level fan-out, and LPT scheduling all active — and requires
// the document to match the fully serial run exactly.
func TestFanoutFigureDeterminism(t *testing.T) {
	ws := mustWorkloads(t, "vector_seq", "gemm")
	serial := testRunner(4)
	serial.Parallelism = 1
	serial.IterParallelism = 1
	want, err := serial.BreakdownComparison(ws, workloads.Large)
	if err != nil {
		t.Fatal(err)
	}
	for _, itpar := range []int{0, 2, 8} {
		fan := testRunner(4)
		fan.Parallelism = 4
		fan.IterParallelism = itpar
		got, err := fan.BreakdownComparison(ws, workloads.Large)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("itpar=%d: parallel study differs from serial", itpar)
		}
	}
}

// TestFanoutSweepDeterminism covers the sensitivity-sweep cell path
// (shared-seed derivation, no counters) under fan-out.
func TestFanoutSweepDeterminism(t *testing.T) {
	serial := testRunner(3)
	serial.Parallelism = 1
	want, err := serial.SweepBlocks(workloads.Small, []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	fan := testRunner(3)
	fan.Parallelism = 4
	fan.IterParallelism = 2
	got, err := fan.SweepBlocks(workloads.Small, []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fan-out sweep differs from serial")
	}
}

// TestLptOrderIsPermutation checks the scheduling order is a valid,
// deterministic permutation: every index exactly once, most expensive
// first, ties kept in submission order.
func TestLptOrderIsPermutation(t *testing.T) {
	r := testRunner(3)
	r.Parallelism = 4
	costs := []float64{1, 5, 3, 5, 2, 0.5, 9}
	order := r.lptOrder(len(costs), func(i int) float64 { return costs[i] })
	if want := []int{6, 1, 3, 2, 4, 0, 5}; !reflect.DeepEqual(order, want) {
		t.Errorf("lptOrder = %v, want %v", order, want)
	}
	r.Parallelism = 1
	if got := r.lptOrder(len(costs), func(i int) float64 { return costs[i] }); got != nil {
		t.Errorf("serial executor should skip ordering, got %v", got)
	}
}

// TestStaticCostModelRanks sanity-checks the static cost model's ranks:
// bigger footprints cost more, managed setups cost more per byte than
// explicit copies, oversubscribed cells cost more than in-capacity ones.
func TestStaticCostModelRanks(t *testing.T) {
	cfg := cuda.DefaultSystemConfig()
	small := staticCellSeconds(cfg, "vector_seq", cuda.UVM, workloads.Small, 30)
	large := staticCellSeconds(cfg, "vector_seq", cuda.UVM, workloads.Large, 30)
	if small >= large {
		t.Errorf("Small (%g) should cost less than Large (%g)", small, large)
	}
	std := staticCellSeconds(cfg, "vector_seq", cuda.Standard, workloads.Super, 30)
	uvm := staticCellSeconds(cfg, "vector_seq", cuda.UVM, workloads.Super, 30)
	if std >= uvm {
		t.Errorf("explicit Super (%g) should cost less than managed Super (%g)", std, uvm)
	}
	under := staticCellSeconds(cfg, "oversub:0.5:4", cuda.UVM, workloads.Tiny, 30)
	over := staticCellSeconds(cfg, "oversub:1.5:4", cuda.UVM, workloads.Tiny, 30)
	if under >= over {
		t.Errorf("in-capacity oversub point (%g) should cost less than evicting one (%g)", under, over)
	}
	if _, _, ok := parseOversubKind("sweep:fig11-blocks:8"); ok {
		t.Error("sweep kind misparsed as oversub")
	}
	if _, _, ok := parseOversubKind("oversub:x:4"); ok {
		t.Error("malformed oversub kind accepted")
	}
}
