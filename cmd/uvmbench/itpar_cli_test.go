package main

import (
	"bytes"
	"fmt"
	"testing"
)

// TestParItparMatrix is the fan-out determinism property test: every
// (-par, -itpar) combination prints byte-identical artifacts, for both
// text and JSON renderings. The matrix crosses serial, partial and
// over-wide widths (itpar 8 exceeds the 2-iteration cells, so blocks
// degenerate to single iterations); the whole `all` suite runs at a wide
// and an over-wide setting (par 0 is every core).
func TestParItparMatrix(t *testing.T) {
	wantText := capture(t, "-i", "2", "-par", "1", "-itpar", "1", "fig7")
	wantJSON := capture(t, "-i", "2", "-par", "1", "-itpar", "1", "-json", "fig7")
	if wantText == "" || wantJSON == "" {
		t.Fatal("reference output is empty")
	}
	for _, par := range []int{1, 2, 4} {
		for _, itpar := range []int{1, 2, 8} {
			if par == 1 && itpar == 1 {
				continue
			}
			t.Run(fmt.Sprintf("par=%d_itpar=%d", par, itpar), func(t *testing.T) {
				pv, iv := fmt.Sprint(par), fmt.Sprint(itpar)
				if got := capture(t, "-i", "2", "-par", pv, "-itpar", iv, "fig7"); got != wantText {
					t.Errorf("text output diverges from -par 1 -itpar 1")
				}
				if got := capture(t, "-i", "2", "-par", pv, "-itpar", iv, "-json", "fig7"); got != wantJSON {
					t.Errorf("JSON output diverges from -par 1 -itpar 1")
				}
			})
		}
	}
	for _, format := range [][2]string{{"text", "-json=false"}, {"json", "-json"}} {
		// `all` prints its cache footer to stderr; keep it out of the log.
		want, _ := captureStderr(t, "-i", "2", "-par", "1", "-itpar", "1", format[1], "all")
		for _, w := range [][2]string{{"4", "4"}, {"0", "8"}} {
			t.Run(fmt.Sprintf("all_%s_par=%s_itpar=%s", format[0], w[0], w[1]), func(t *testing.T) {
				if got, _ := captureStderr(t, "-i", "2", "-par", w[0], "-itpar", w[1], format[1], "all"); got != want {
					t.Errorf("%s output diverges from -par 1 -itpar 1", format[0])
				}
			})
		}
	}
	if err := run([]string{"-itpar", "-1", "table3"}); err == nil {
		t.Error("negative -itpar should error")
	}
}

// TestTraceItparIdentity: trace files are byte-identical under fan-out
// (the traced runner records one iteration per setup, so the fan-out is
// trivial there — but the flag must not perturb the timeline either).
func TestTraceItparIdentity(t *testing.T) {
	serialDir, fanDir := t.TempDir(), t.TempDir()
	capture(t, "-i", "1", "-workload", "gemm", "-setup", "uvm_prefetch",
		"-par", "1", "-itpar", "1", "-out", serialDir, "trace")
	capture(t, "-i", "1", "-workload", "gemm", "-setup", "uvm_prefetch",
		"-par", "4", "-itpar", "8", "-out", fanDir, "trace")
	serial := readTrace(t, serialDir, "gemm", "uvm_prefetch")
	fan := readTrace(t, fanDir, "gemm", "uvm_prefetch")
	if !bytes.Equal(serial, fan) {
		t.Error("trace file differs between serial and fan-out runs")
	}
}
