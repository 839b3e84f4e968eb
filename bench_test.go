package uvmasim_test

// One testing.B benchmark per table/figure of the paper's evaluation.
// Each benchmark regenerates its artifact's data end to end (allocation,
// transfers, kernels, counters) and reports the headline quantity the
// paper derives from it as a custom metric, so `go test -bench=.` prints
// the reproduction's numbers next to the harness cost.

import (
	"testing"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// benchRunner keeps repetitions small: benchmarks measure the harness,
// the statistics do not need 30 repetitions per b.N iteration. The cell
// cache is disabled so every b.N iteration re-simulates instead of
// replaying memoized cells.
func benchRunner() *core.Runner {
	r := core.NewRunner()
	r.Iterations = 3
	r.Cache = false
	return r
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.RenderTable3() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig4Distributions regenerates the micro exec-time
// distributions over all six input sizes.
func BenchmarkFig4Distributions(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		study, err := r.Distributions(workloads.Micro(), workloads.AllSizes)
		if err != nil {
			b.Fatal(err)
		}
		if len(study.Cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

// BenchmarkFig5CV regenerates the std/mean stability study; the metric is
// the geo-mean CV gap between Mega and Large (positive = Mega noisier,
// Takeaway 1).
func BenchmarkFig5CV(b *testing.B) {
	r := benchRunner()
	r.Iterations = 8
	var gap float64
	for i := 0; i < b.N; i++ {
		study, err := r.Distributions(workloads.Micro(),
			[]workloads.Size{workloads.Large, workloads.Mega})
		if err != nil {
			b.Fatal(err)
		}
		gap = study.GeoMeanCV(workloads.Mega) - study.GeoMeanCV(workloads.Large)
	}
	b.ReportMetric(gap, "cv-gap")
}

// BenchmarkFig6MegaNoise reports the Mega-input memcpy coefficient of
// variation.
func BenchmarkFig6MegaNoise(b *testing.B) {
	r := benchRunner()
	r.Iterations = 10
	var cv float64
	for i := 0; i < b.N; i++ {
		f, err := r.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		cv = f.MemcpyCV()
	}
	b.ReportMetric(cv, "memcpy-cv")
}

// benchBreakdown measures a five-setup comparison and reports the
// geomean improvements of uvm_prefetch and the combination (the §4.1
// headline numbers) as metrics.
func benchBreakdown(b *testing.B, ws []workloads.Workload, size workloads.Size) {
	r := benchRunner()
	var pf, combo float64
	for i := 0; i < b.N; i++ {
		study, err := r.BreakdownComparison(ws, size)
		if err != nil {
			b.Fatal(err)
		}
		pf = study.GeoMeanImprovement(cuda.UVMPrefetch)
		combo = study.GeoMeanImprovement(cuda.UVMPrefetchAsync)
	}
	b.ReportMetric(pf*100, "%uvm_prefetch")
	b.ReportMetric(combo*100, "%combo")
}

func BenchmarkFig7MicroLarge(b *testing.B) {
	benchBreakdown(b, workloads.Micro(), workloads.Large)
}

func BenchmarkFig7MicroSuper(b *testing.B) {
	benchBreakdown(b, workloads.Micro(), workloads.Super)
}

func BenchmarkFig8AppsSuper(b *testing.B) {
	benchBreakdown(b, workloads.Apps(), workloads.Super)
}

// BenchmarkFig9InstructionMix reports gemm's async control-instruction
// inflation (paper: +39.98%).
func BenchmarkFig9InstructionMix(b *testing.B) {
	r := benchRunner()
	var inflation float64
	for i := 0; i < b.N; i++ {
		study, err := r.CounterComparison([]string{"gemm", "lud", "yolov3"}, workloads.Large)
		if err != nil {
			b.Fatal(err)
		}
		std, err := study.Row("gemm", cuda.Standard)
		if err != nil {
			b.Fatal(err)
		}
		pfa, err := study.Row("gemm", cuda.UVMPrefetchAsync)
		if err != nil {
			b.Fatal(err)
		}
		inflation = (pfa.CtrlInst/std.CtrlInst - 1) * 100
	}
	b.ReportMetric(inflation, "%ctrl-inflation")
}

// BenchmarkFig10CacheMiss reports lud's async load-miss-rate reduction
// (paper: -35.96%).
func BenchmarkFig10CacheMiss(b *testing.B) {
	r := benchRunner()
	var reduction float64
	for i := 0; i < b.N; i++ {
		study, err := r.CounterComparison([]string{"gemm", "lud", "yolov3"}, workloads.Large)
		if err != nil {
			b.Fatal(err)
		}
		std, err := study.Row("lud", cuda.Standard)
		if err != nil {
			b.Fatal(err)
		}
		asy, err := study.Row("lud", cuda.Async)
		if err != nil {
			b.Fatal(err)
		}
		reduction = (1 - asy.LoadMissRate/std.LoadMissRate) * 100
	}
	b.ReportMetric(reduction, "%load-miss-reduction")
}

func BenchmarkFig11BlockSweep(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.SweepBlocks(workloads.Large,
			[]int{4096, 2048, 1024, 512, 256, 128, 64, 32, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12ThreadSweep reports the standard-kernel slowdown of a
// 32-thread launch versus 128 threads (paper: 3.95x).
func BenchmarkFig12ThreadSweep(b *testing.B) {
	r := benchRunner()
	var slowdown float64
	for i := 0; i < b.N; i++ {
		sw, err := r.SweepThreads(workloads.Large, []int{1024, 512, 256, 128, 64, 32})
		if err != nil {
			b.Fatal(err)
		}
		p32, err := sw.Point(32)
		if err != nil {
			b.Fatal(err)
		}
		p128, err := sw.Point(128)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = p32.BySetup[0].Kernel / p128.BySetup[0].Kernel
	}
	b.ReportMetric(slowdown, "x-kernel-32t-vs-128t")
}

func BenchmarkFig13SharedSweep(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.SweepShared(workloads.Large,
			[]float64{2, 4, 8, 16, 32, 64, 128}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14MultiJob reports the inter-job pipeline improvement
// (paper estimate: >30%).
func BenchmarkFig14MultiJob(b *testing.B) {
	r := benchRunner()
	var imp float64
	for i := 0; i < b.N; i++ {
		res, err := r.MultiJob("vector_seq", cuda.UVMPrefetchAsync, workloads.Super, 8)
		if err != nil {
			b.Fatal(err)
		}
		imp = res.Improvement * 100
	}
	b.ReportMetric(imp, "%pipeline-improvement")
}
