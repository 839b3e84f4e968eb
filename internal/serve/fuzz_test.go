package serve

import (
	"bytes"
	"testing"

	"uvmasim/internal/profile"
	"uvmasim/internal/workloads"
)

// FuzzParseSpec: every request body either errors or resolves to a
// request whose names all resolve. The same parser serves the CLI's
// flags (through Spec.Resolve), so this covers both surfaces. Nothing
// simulates, so every input is cheap.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(`{"figure":"fig7"}`))
	f.Add([]byte(`{"figures":["all"],"setups":["uvm"],"gpus":[2],"topology":["nvlink"],"policy":"first-fit"}`))
	f.Add([]byte(`{"figure":"compare-profiles","profiles":["v100-16g-pcie3"],"workload":"lud","size":"tiny"}`))
	def := profile.Default()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseSpec(bytes.NewReader(body), def)
		if err != nil {
			return
		}
		if len(req.Figures) == 0 {
			t.Error("resolved request runs no figures")
		}
		for _, fig := range req.Figures {
			if !IsFigure(fig) {
				t.Errorf("resolved unknown figure %q", fig)
			}
		}
		if req.Iters < 1 || req.ItPar < 0 || req.Opt.Jobs < 1 {
			t.Errorf("resolved counts out of range: iters %d, itpar %d, jobs %d", req.Iters, req.ItPar, req.Opt.Jobs)
		}
		if _, err := req.Opt.SizeOr(workloads.Large); err != nil {
			t.Error(err)
		}
		if _, err := workloads.ByName(req.Opt.Workload); err != nil {
			t.Error(err)
		}
		gpus, _, _, err := req.Opt.MultiGPU()
		if err != nil {
			t.Error(err)
		}
		for _, g := range gpus {
			if g < 1 {
				t.Errorf("resolved device count %d", g)
			}
		}
		for _, p := range append([]profile.Profile{req.Profile}, req.Opt.Profiles...) {
			if _, err := profile.Lookup(p.Name); err != nil {
				t.Errorf("resolved machine outside the built-ins: %v", err)
			}
		}
	})
}
