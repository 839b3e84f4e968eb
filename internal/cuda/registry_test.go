package cuda

import (
	"strings"
	"sync"
	"testing"
)

// TestRegisterValidation pins the descriptor coherence rules: names must
// be non-empty and list-safe, and the capability bits must describe a
// mode the simulator can execute.
func TestRegisterValidation(t *testing.T) {
	cases := []struct {
		name    string
		d       Desc
		wantErr string
	}{
		{"empty name", Desc{}, "must not be empty"},
		{"space in name", Desc{Name: "a b"}, "whitespace"},
		{"comma in name", Desc{Name: "a,b"}, "whitespace or commas"},
		{"newline in name", Desc{Name: "a\nb"}, "whitespace"},
		{"zerocopy+smcopy", Desc{Name: "x", Managed: true, ZeroCopy: true, SMCopy: true}, "mutually exclusive"},
		{"zerocopy unmanaged", Desc{Name: "x", ZeroCopy: true}, "require managed"},
		{"smcopy unmanaged", Desc{Name: "x", SMCopy: true}, "require managed"},
		{"zerocopy+prefetch", Desc{Name: "x", Managed: true, ZeroCopy: true, Prefetch: true}, "prefetch does not apply"},
		{"prefetch unmanaged", Desc{Name: "x", Prefetch: true}, "prefetch requires managed"},
		{"duplicate", Desc{Name: "uvm", Managed: true}, "already registered"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Register(c.d); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Register(%+v) = %v, want error containing %q", c.d, err, c.wantErr)
			}
		})
	}
}

// TestBuiltinRegistry pins the built-in registrations: the paper's five
// in presentation order with standard as the baseline, plus the two
// extension modes with their capability bits.
func TestBuiltinRegistry(t *testing.T) {
	paper := PaperSetups()
	want := []Setup{Standard, Async, UVM, UVMPrefetch, UVMPrefetchAsync}
	if len(paper) != len(want) {
		t.Fatalf("PaperSetups() = %v, want %v", paper, want)
	}
	for i, s := range want {
		if paper[i] != s {
			t.Fatalf("PaperSetups()[%d] = %v, want %v", i, paper[i], s)
		}
	}
	if n := len(Registered()); n < 7 {
		t.Errorf("Registered() has %d setups, want >= 7", n)
	}
	if !UVMZeroCopy.Managed() || !UVMZeroCopy.ZeroCopy() || UVMZeroCopy.Prefetch() || UVMZeroCopy.SMCopy() {
		t.Errorf("uvm_zerocopy capability bits wrong")
	}
	if !UVMSMCopy.Managed() || !UVMSMCopy.SMCopy() || UVMSMCopy.Prefetch() || UVMSMCopy.ZeroCopy() {
		t.Errorf("uvm_smcopy capability bits wrong")
	}
	if d, ok := Standard.Describe(); !ok || !d.Baseline {
		t.Errorf("standard should be the registered baseline")
	}
}

// TestParseSetupHints: unknown names are rejected upfront with a
// nearest-name suggestion, both singly and in lists.
func TestParseSetupHints(t *testing.T) {
	if _, err := ParseSetup("uvm_zercopy"); err == nil ||
		!strings.Contains(err.Error(), "uvm_zerocopy") {
		t.Errorf("ParseSetup hint missing: %v", err)
	}
	if _, err := ParseSetupList([]string{"standard", "uvm_smcpy"}); err == nil ||
		!strings.Contains(err.Error(), "uvm_smcopy") {
		t.Errorf("ParseSetupList hint missing: %v", err)
	}
	if _, err := ParseSetupList([]string{"uvm", "uvm"}); err == nil ||
		!strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate setups should be rejected: %v", err)
	}
	if _, err := ParseSetupList([]string{" ", "", ""}); err == nil ||
		!strings.Contains(err.Error(), "names no setups") {
		t.Errorf("empty list should be rejected: %v", err)
	}
	got, err := ParseSetupList([]string{" standard ", " uvm_zerocopy "})
	if err != nil || len(got) != 2 || got[0] != Standard || got[1] != UVMZeroCopy {
		t.Errorf("ParseSetupList = %v, %v", got, err)
	}
}

// TestRegisterSynthetic registers a new setup at runtime and checks the
// registry stays append-only and name-addressable, and that baseline
// resolution follows the registered Baseline bit rather than position.
func TestRegisterSynthetic(t *testing.T) {
	before := len(Registered())
	s, err := Register(Desc{Name: "synthetic_cuda_test", Managed: true, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if int(s) != before {
		t.Errorf("synthetic setup ordinal %d, want append at %d", s, before)
	}
	if got := len(Registered()); got != before+1 {
		t.Errorf("Registered() grew to %d, want %d", got, before+1)
	}
	if got := len(PaperSetups()); got != 5 {
		t.Errorf("PaperSetups() = %d entries after extension, want 5", got)
	}
	back, err := ParseSetup("synthetic_cuda_test")
	if err != nil || back != s {
		t.Errorf("ParseSetup round-trip = %v, %v", back, err)
	}
	if s.String() != "synthetic_cuda_test" || !s.Managed() || !s.Prefetch() {
		t.Errorf("synthetic descriptor not honoured: %v", s)
	}
	// Baseline resolution: standard wins wherever it sits; without it
	// the study's first setup is the baseline.
	if i := BaselineIndex([]Setup{UVM, Standard, s}); i != 1 {
		t.Errorf("BaselineIndex with standard at 1 = %d", i)
	}
	if i := BaselineIndex([]Setup{s, UVM}); i != 0 {
		t.Errorf("BaselineIndex without standard = %d", i)
	}
	if i := BaselineIndex(nil); i != 0 {
		t.Errorf("BaselineIndex(nil) = %d", i)
	}
}

// TestRegisterConcurrent: Register and capability reads may race; the
// registry swap must stay atomic (run with -race).
func TestRegisterConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range Registered() {
					_ = s.Managed()
					_ = s.String()
				}
			}
		}
	}()
	for i := 0; i < 4; i++ {
		name := "synthetic_race_" + string(rune('a'+i))
		if _, err := Register(Desc{Name: name, Managed: true}); err != nil {
			t.Errorf("Register(%s): %v", name, err)
		}
	}
	close(stop)
	wg.Wait()
}
