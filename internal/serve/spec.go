package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/nearest"
	"uvmasim/internal/profile"
	"uvmasim/internal/sched"
	"uvmasim/internal/topo"
	"uvmasim/internal/workloads"
)

// Spec is one run of the study grid — figures × setups × size ×
// iterations × seed — and the only encoding of it: uvmbench flags parse
// into a Spec, POST /v1/experiments bodies decode into one, and shard
// artifacts embed one. Every field is optional and its zero value means
// the default; Resolve applies the defaults and validates every name.
type Spec struct {
	// Figure names one artifact; Figures names several (run in order,
	// documents concatenated exactly like CLI `-json f1,f2`). They
	// combine; "all" expands to AllFigures.
	Figure  string   `json:"figure,omitempty"`
	Figures []string `json:"figures,omitempty"`
	// Profile names the machine ("" = the surface's default). Which
	// names resolve is up to the caller's lookup: the server accepts
	// built-ins only, the CLI also profile JSON files.
	Profile string `json:"profile,omitempty"`
	// Profiles is the compare-profiles machine set (empty = every
	// built-in), resolved through the same lookup.
	Profiles []string `json:"profiles,omitempty"`
	Workload string   `json:"workload,omitempty"` // compare-profiles and trace workload
	// Setups is the study's setup subset by registered name (empty = the
	// paper's five).
	Setups []string `json:"setups,omitempty"`
	Size   string   `json:"size,omitempty"`  // size-class override (default per figure)
	Iters  int      `json:"iters,omitempty"` // iterations per configuration
	Seed   *int64   `json:"seed,omitempty"`  // base random seed
	Jobs   int      `json:"jobs,omitempty"`  // fig14/multigpu batch size
	// ItPar is the intra-cell iteration fan-out (0 = the runner's
	// setting). It cannot change any output byte.
	ItPar int `json:"itpar,omitempty"`
	// GPUs, Topology and Policy configure the multigpu grid.
	GPUs     []int    `json:"gpus,omitempty"`
	Topology []string `json:"topology,omitempty"`
	Policy   string   `json:"policy,omitempty"`
}

// Run-level defaults: what a zero Iters or a nil Seed means. The
// figure-level ones live in Defaults.
const (
	DefaultIters       = core.DefaultIterations
	DefaultSeed  int64 = 1
)

// specFields lists the accepted JSON keys, for typo suggestions.
var specFields = []string{
	"figure", "figures", "profile", "profiles", "workload", "setups",
	"size", "iters", "seed", "jobs", "itpar", "gpus", "topology", "policy",
}

// ParseSpec decodes and resolves a request body against the built-in
// machines, with defaultProfile for specs that name none. Unknown fields
// and unknown names fail with nearest-name suggestions, so a curl typo
// gets the same help a shell typo does.
func ParseSpec(r io.Reader, defaultProfile profile.Profile) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		const unknown = `json: unknown field "`
		if msg := err.Error(); strings.HasPrefix(msg, unknown) {
			name := strings.TrimSuffix(strings.TrimPrefix(msg, unknown), `"`)
			return nil, fmt.Errorf("unknown spec field %q%s", name, nearest.Hint(name, specFields, 2))
		}
		return nil, fmt.Errorf("bad spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bad spec: trailing data after the JSON object")
	}
	if s.Figure == "" && len(s.Figures) == 0 {
		return nil, fmt.Errorf("spec names no figures (try \"figure\": \"fig7\", or \"all\")")
	}
	return s.Resolve(func(name string) (profile.Profile, error) {
		if name == "" {
			return defaultProfile, nil
		}
		return profile.Lookup(name)
	})
}

// Request is a resolved spec, ready to run.
type Request struct {
	Figures []string // expanded, validated figure list
	Profile profile.Profile
	Iters   int
	Seed    int64
	ItPar   int          // intra-cell fan-out (0 = the runner's setting)
	Setups  []cuda.Setup // resolved study subset (nil = paper five)
	Opt     FigureOptions
}

// Configure applies the request's run settings to a runner.
func (q *Request) Configure(r *core.Runner) {
	r.Iterations = q.Iters
	r.BaseSeed = q.Seed
	r.Setups = q.Setups
	if q.ItPar > 0 {
		r.IterParallelism = q.ItPar
	}
}

// Resolve applies the defaults and validates every name, so a typo
// fails in microseconds, before any cell simulates. lookup resolves
// machine names, and lookup("") must return the caller's default
// machine; it is the one thing that differs between the surfaces.
func (s *Spec) Resolve(lookup func(name string) (profile.Profile, error)) (*Request, error) {
	figures := s.Figures
	if s.Figure != "" {
		figures = append([]string{s.Figure}, figures...)
	}
	req := &Request{Iters: DefaultIters, Seed: DefaultSeed, ItPar: s.ItPar}
	for _, f := range figures {
		switch {
		case f == "all":
			req.Figures = append(req.Figures, AllFigures...)
		case IsFigure(f):
			req.Figures = append(req.Figures, f)
		default:
			cands := append([]string{"all"}, FigureNames...)
			return nil, fmt.Errorf("unknown figure %q%s", f, nearest.Hint(f, cands, 2))
		}
	}
	for _, v := range []struct {
		name string
		n    int
	}{{"iters", s.Iters}, {"jobs", s.Jobs}, {"itpar", s.ItPar}} {
		if v.n < 0 {
			return nil, fmt.Errorf("%s must be >= 0, got %d", v.name, v.n)
		}
	}
	if s.Iters > 0 {
		req.Iters = s.Iters
	}
	if s.Seed != nil {
		req.Seed = *s.Seed
	}
	opt := FigureOptions{Size: s.Size, Jobs: s.Jobs, Workload: s.Workload, GPUs: s.GPUs, Policy: s.Policy}
	if s.Size != "" {
		if _, err := workloads.ParseSize(s.Size); err != nil {
			return nil, err
		}
	}
	if s.Workload != "" {
		if _, err := workloads.ByName(s.Workload); err != nil {
			return nil, err
		}
	}
	for _, g := range s.GPUs {
		if g < 1 {
			return nil, fmt.Errorf("gpus entries must be positive device counts, got %d", g)
		}
	}
	if len(s.Topology) > 0 {
		topos, err := topo.ParseKindList(s.Topology)
		if err != nil {
			return nil, err
		}
		opt.Topology = topos
	}
	if s.Policy != "" {
		if _, err := sched.ParsePolicy(s.Policy); err != nil {
			return nil, err
		}
	}
	if len(s.Setups) > 0 {
		setups, err := cuda.ParseSetupList(s.Setups)
		if err != nil {
			return nil, err
		}
		req.Setups = setups
	}
	var err error
	if req.Profile, err = lookup(s.Profile); err != nil {
		return nil, err
	}
	for _, name := range s.Profiles {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		p, err := lookup(name)
		if err != nil {
			return nil, err
		}
		opt.Profiles = append(opt.Profiles, p)
	}
	if len(s.Profiles) > 0 && len(opt.Profiles) == 0 {
		return nil, fmt.Errorf("profiles: list names no profiles")
	}
	req.Opt = opt.withDefaults()
	return req, nil
}

// ListFlag parses a comma-separated flag value into a spec name list
// ("" = empty, the default); Resolve trims and validates the entries.
func ListFlag(dst *[]string) func(string) error {
	return func(v string) error {
		*dst = nil
		if v != "" {
			*dst = strings.Split(v, ",")
		}
		return nil
	}
}

// CountsFlag parses a comma-separated device-count flag value into a
// spec's GPUs ("" = empty, the default); Resolve checks the counts.
func CountsFlag(dst *[]int) func(string) error {
	return func(v string) error {
		*dst = nil
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			n, err := strconv.Atoi(part)
			if err != nil {
				return fmt.Errorf("entry %q is not a device count", part)
			}
			*dst = append(*dst, n)
		}
		if v != "" && *dst == nil {
			return fmt.Errorf("names no device counts")
		}
		return nil
	}
}
