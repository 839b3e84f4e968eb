package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmasim/internal/cuda"
	"uvmasim/internal/workloads"
)

// -update regenerates every golden file from the current code. Only use
// it to capture goldens BEFORE a refactor whose output must stay
// byte-identical; regenerating afterwards would defeat the pin.
var updateGoldens = flag.Bool("update", false, "rewrite golden files from current output")

// Golden byte-identity tests for the O(1) eviction refactor. Every
// golden file under testdata/ was captured from the pre-refactor code
// (the full-scan evictor, now the test oracle in
// internal/uvm/differential_test.go), so a byte-for-byte match here proves the indexed
// bookkeeping changed no simulated timing, counter, or rendered digit:
//
//   golden_oversub_default — the oversub sweep on the old default ratio
//     grid {0.25 .. 1.3}, pinning the refactor itself;
//   golden_oversub_dense   — the old engine run on the new
//     DefaultOversubRatios grid, pinning the denser default separately
//     from the data-structure change;
//   golden_fig12/fig13     — sweeps whose workloads evict under UVM
//     pressure, covering the demand/prefetch/writeback paths.

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if *updateGoldens {
		if err := os.WriteFile(filepath.Join("testdata", name), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, name)
	if got == want {
		return
	}
	// Locate the first divergent byte for a usable failure message.
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	hiG, hiW := i+60, i+60
	if hiG > len(got) {
		hiG = len(got)
	}
	if hiW > len(want) {
		hiW = len(want)
	}
	t.Errorf("%s: output diverges from pre-refactor golden at byte %d\n got: %q\nwant: %q",
		name, i, got[lo:hiG], want[lo:hiW])
}

func oversubGolden(t *testing.T, ratios []float64, base string) {
	t.Helper()
	r := NewRunner()
	study, err := r.Oversubscription(cuda.UVMPrefetch, ratios, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, base+".txt", study.Render())
	js, err := RenderJSON(study.Doc())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, base+".json", js)
}

func TestGoldenOversubOldGrid(t *testing.T) {
	oversubGolden(t, []float64{0.25, 0.5, 0.75, 0.9, 1.1, 1.3}, "golden_oversub_default")
}

func TestGoldenOversubDenseGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("dense grid sweep in -short mode")
	}
	oversubGolden(t, DefaultOversubRatios, "golden_oversub_dense")
}

func sweepGolden(t *testing.T, sw *Sweep, figure, tag, base string) {
	t.Helper()
	checkGolden(t, base+".txt", sw.Render(figure))
	js, err := RenderJSON(sw.Doc(tag))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, base+".json", js)
}

// TestGoldenFig7 pins the headline micro five-setup comparison
// (Large + Super, the uvmbench fig7 artifact) byte-for-byte against
// output captured before the GC-free hot-loop rewrite (arena-recycled
// contexts, index-linked LRU, batched DemandRange).
func TestGoldenFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("two-size micro grid in -short mode")
	}
	r := NewRunner()
	r.Iterations = 2
	var text strings.Builder
	var studies []*BreakdownStudy
	for _, size := range []workloads.Size{workloads.Large, workloads.Super} {
		study, err := r.BreakdownComparison(workloads.Micro(), size)
		if err != nil {
			t.Fatal(err)
		}
		studies = append(studies, study)
		text.WriteString(study.Render("Figure 7"))
		text.WriteString("\n")
	}
	checkGolden(t, "golden_fig7.txt", text.String())
	js, err := RenderJSON(Fig7Doc(studies))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig7.json", js)
}

// TestGoldenFig8 pins the application five-setup comparison (Super, the
// uvmbench fig8 artifact) the same way.
func TestGoldenFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("application grid in -short mode")
	}
	r := NewRunner()
	r.Iterations = 2
	study, err := r.BreakdownComparison(workloads.Apps(), workloads.Super)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig8.txt", study.Render("Figure 8"))
	js, err := RenderJSON(study.Doc("fig8"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig8.json", js)
}

func TestGoldenFig12(t *testing.T) {
	r := NewRunner()
	r.Iterations = 2
	sw, err := r.SweepThreads(workloads.Large, []int{1024, 512, 256, 128, 64, 32})
	if err != nil {
		t.Fatal(err)
	}
	sweepGolden(t, sw, "Figure 12", "fig12", "golden_fig12")
}

func TestGoldenFig13(t *testing.T) {
	r := NewRunner()
	r.Iterations = 2
	sw, err := r.SweepShared(workloads.Large, []float64{2, 4, 8, 16, 32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	sweepGolden(t, sw, "Figure 13", "fig13", "golden_fig13")
}
