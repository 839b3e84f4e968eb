package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSetupsFlag covers the study-subset flag end to end: a named subset
// narrows every column of a figure, the new transfer modes resolve by
// registered name, and unknown names are rejected upfront with a
// nearest-name hint.
func TestSetupsFlag(t *testing.T) {
	out := capture(t, "-i", "1", "-size", "tiny",
		"-setups", "standard,uvm,uvm_zerocopy,uvm_smcopy", "fig7")
	for _, want := range []string{"standard", "uvm_zerocopy", "uvm_smcopy"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 subset output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "uvm_prefetch_async") {
		t.Errorf("excluded setup leaked into the subset output:\n%s", out)
	}

	// Every registered setup at once, as JSON: fig7 lists all seven, and
	// the zero-copy crossover (sparse gather vs dense gemm) renders.
	const all = "standard,async,uvm,uvm_prefetch,uvm_prefetch_async,uvm_zerocopy,uvm_smcopy"
	var fig7 struct {
		Data []struct {
			Setups []string `json:"setups"`
		} `json:"data"`
	}
	doc := capture(t, "-i", "2", "-size", "small", "-setups", all, "-json", "-workload", "vector_seq", "fig7")
	if err := json.Unmarshal([]byte(doc), &fig7); err != nil || len(fig7.Data) == 0 ||
		strings.Join(fig7.Data[0].Setups, ",") != all {
		t.Errorf("fig7 -json over every setup: %+v (err %v)", fig7.Data, err)
	}
	for _, w := range []string{"vector_gather", "gemm"} {
		if doc := capture(t, "-i", "2", "-size", "medium", "-setups", all, "-json",
			"-workload", w, "compare-profiles"); !json.Valid([]byte(doc)) {
			t.Errorf("%s crossover is not valid JSON", w)
		}
	}
	// The subset path through a counter figure and a trace run.
	if out := capture(t, "-i", "1", "-size", "tiny", "-setups", "standard,uvm_zerocopy,uvm_smcopy", "fig9"); !strings.Contains(out, "uvm_smcopy") {
		t.Errorf("fig9 subset output lacks uvm_smcopy:\n%s", out)
	}
	dir := t.TempDir()
	capture(t, "-i", "1", "-workload", "gemm", "-setup", "uvm_smcopy", "-out", dir, "trace")
	readTrace(t, dir, "gemm", "uvm_smcopy")
}

// TestSetupsFlagErrors: unknown and duplicate names fail before any
// simulation, with a suggestion for near-misses.
func TestSetupsFlagErrors(t *testing.T) {
	err := run([]string{"-setups", "uvm_zercopy", "fig7"})
	if err == nil || !strings.Contains(err.Error(), "uvm_zerocopy") {
		t.Errorf("typo should suggest uvm_zerocopy, got %v", err)
	}
	err = run([]string{"-setups", "uvm,uvm", "fig7"})
	if err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate setups should be rejected, got %v", err)
	}
	err = run([]string{"-setups", ",", "fig7"})
	if err == nil || !strings.Contains(err.Error(), "names no setups") {
		t.Errorf("empty subset should be rejected, got %v", err)
	}
}

// TestSetupsFlagDefaultUnchanged: without -setups the figure runs the
// paper's five-setup presentation exactly — the extension modes stay out
// of default output (that is what keeps the goldens byte-identical).
func TestSetupsFlagDefaultUnchanged(t *testing.T) {
	out := capture(t, "-i", "1", "-size", "tiny", "fig7")
	if strings.Contains(out, "uvm_zerocopy") || strings.Contains(out, "uvm_smcopy") {
		t.Errorf("extension modes leaked into the default presentation:\n%s", out)
	}
	if !strings.Contains(out, "uvm_prefetch_async") {
		t.Errorf("default presentation incomplete:\n%s", out)
	}
}
