package main

// Shard artifacts are the fan-out half of the cell store: `-shard i/n`
// runs only the cells whose key hash lands in shard i, captures them as
// portable cell documents, and prints them with the full run spec;
// `merge` over a complete partition preloads the cells into an in-memory
// store and replays the run, which renders byte-identical output to the
// unsharded invocation (every cell is a store hit, and store payloads
// round-trip float64s exactly). The partition is keyed on content
// hashes, so it is stable across machines and -par settings, and shard
// artifacts are themselves deterministic: cells serialize sorted by
// canonical key.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"uvmasim/internal/core"
	"uvmasim/internal/cuda"
	"uvmasim/internal/profile"
	"uvmasim/internal/serve"
	"uvmasim/internal/store"
)

// shardArtifact is the printed product of a -shard run: the resolved
// run spec (see pinRun), the machines its profile names resolved to
// (keyed by profile name — a merge machine needs neither the producer's
// profile files nor its built-ins), and the captured cells. It also carries the shard's cost accounting: the
// static cost-model estimate of its cells (deterministic, comparable
// across shards before any run) and the wall seconds this producer
// actually spent simulating (zero when every cell was a store hit).
// Merge reports the balance across the partition from these fields.
type shardArtifact struct {
	Schema               int                        `json:"schema"`
	Spec                 serve.Spec                 `json:"spec"`
	Machines             map[string]profile.Profile `json:"machines"`
	ShardIndex           int                        `json:"shard_index"`
	ShardCount           int                        `json:"shard_count"`
	EstimatedCellSeconds float64                    `json:"estimated_cell_seconds"`
	ActualCellSeconds    float64                    `json:"actual_cell_seconds"`
	Cells                []store.CellDoc            `json:"cells"`
}

// pinRun returns the run as a shard artifact embeds it: every default
// replaced by the value this build resolved it to, every machine named
// by its profile name, plus the machines those names stand for. Zero
// fields then cannot mean one thing to the producing build and another
// to the merging one, and runs that resolve alike (`-i 30` and the
// default, or one profile file reached by two paths) embed equal specs.
func pinRun(cmds []string, req *serve.Request) (serve.Spec, map[string]profile.Profile, error) {
	seed := req.Seed
	spec := serve.Spec{
		Figures:  cmds,
		Profile:  req.Profile.Name,
		Workload: req.Opt.Workload,
		Size:     req.Opt.Size,
		Iters:    req.Iters,
		Seed:     &seed,
		Jobs:     req.Opt.Jobs,
		GPUs:     req.Opt.GPUs,
		Policy:   req.Opt.Policy,
	}
	for _, k := range req.Opt.Topology {
		spec.Topology = append(spec.Topology, string(k))
	}
	setups := req.Setups
	if setups == nil {
		setups = cuda.PaperSetups()
	}
	for _, st := range setups {
		spec.Setups = append(spec.Setups, st.String())
	}
	machines := make(map[string]profile.Profile)
	pin := func(p profile.Profile) error {
		if prev, ok := machines[p.Name]; ok && prev.Fingerprint() != p.Fingerprint() {
			return fmt.Errorf("-shard: two different machines are named %q", p.Name)
		}
		machines[p.Name] = p
		return nil
	}
	if err := pin(req.Profile); err != nil {
		return serve.Spec{}, nil, err
	}
	if slices.Contains(req.Figures, "compare-profiles") {
		for _, p := range req.Opt.Profiles {
			if err := pin(p); err != nil {
				return serve.Spec{}, nil, err
			}
			spec.Profiles = append(spec.Profiles, p.Name)
		}
	}
	return spec, machines, nil
}

// estimateArtifactSeconds sums the static cost-model estimate over a
// shard's captured cells. Each cell is estimated under the machine it
// actually ran on (matched by fingerprint — compare-profiles shards mix
// machines), falling back to the run's default machine.
func estimateArtifactSeconds(def profile.Profile, machines map[string]profile.Profile, docs []store.CellDoc) float64 {
	cfgByFP := make(map[string]cuda.SystemConfig, len(machines))
	for _, p := range machines {
		cfgByFP[p.Fingerprint()] = p.Config
	}
	var total float64
	warned := make(map[string]bool)
	for _, doc := range docs {
		cfg, ok := cfgByFP[doc.Key.ProfileFP]
		if !ok {
			cfg = def.Config
		}
		// An unknown setup/size name still yields a usable generic
		// estimate; flag each distinct identity once on stderr instead of
		// silently mispricing the shard (estimates steer scheduling, never
		// results).
		secs, err := core.EstimateCellSeconds(cfg, doc)
		if err != nil && !warned[err.Error()] {
			warned[err.Error()] = true
			fmt.Fprintf(os.Stderr, "uvmbench: shard estimate: %v (using generic estimate)\n", err)
		}
		total += secs
	}
	return total
}

// printShardBalance reports how evenly the partition spread its cost —
// on stderr, so merged stdout stays byte-identical to the unsharded
// run. Estimated seconds show what the static partitioner promised;
// actual seconds show what each producer really paid (zero for fully
// store-warm shards, which is why the two columns can disagree).
func printShardBalance(w io.Writer, files []string, arts []shardArtifact) {
	if len(arts) < 2 {
		return
	}
	var estSum, estMax, actSum, actMax float64
	for _, art := range arts {
		estSum += art.EstimatedCellSeconds
		actSum += art.ActualCellSeconds
		estMax = max(estMax, art.EstimatedCellSeconds)
		actMax = max(actMax, art.ActualCellSeconds)
	}
	n := float64(len(arts))
	fmt.Fprintf(w, "shard balance: %d shards, estimated max/mean %.2f, actual max/mean %.2f\n",
		len(arts), ratioOrZero(estMax, estSum/n), ratioOrZero(actMax, actSum/n))
	for i, art := range arts {
		fmt.Fprintf(w, "  shard %d/%d %s: %d cells, estimated %.3fs, actual %.3fs\n",
			art.ShardIndex, art.ShardCount, files[i], len(art.Cells),
			art.EstimatedCellSeconds, art.ActualCellSeconds)
	}
}

func ratioOrZero(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// parseShard parses the -shard flag's "i/n" form (1-based index).
func parseShard(s string) (idx, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(i)
		if err == nil {
			count, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard must be i/n (e.g. 2/3), got %q", s)
	}
	if count < 1 || idx < 1 || idx > count {
		return 0, 0, fmt.Errorf("-shard index out of range: %d/%d needs 1 <= i <= n", idx, count)
	}
	return idx, count, nil
}

// emitShardArtifact prints the artifact as indented JSON. The encoding
// is deterministic (sorted cells, fixed field order), so artifacts from
// the same shard are byte-identical at any -par.
func emitShardArtifact(w io.Writer, art shardArtifact) error {
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// decodeShards checks that the artifacts form one complete partition of
// one run and resolves that run's spec against the machines the
// artifacts pin. It reads and simulates nothing, so it fails in
// microseconds; every spec it returns names only resolvable things.
func decodeShards(files []string, blobs [][]byte) ([]shardArtifact, *serve.Request, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("usage: uvmbench merge <shard.json> ...")
	}
	arts := make([]shardArtifact, len(files))
	var runJSON []byte
	for i, b := range blobs {
		// Strict decoding: an artifact from another build — an older
		// spec layout included — fails here rather than merging wrongly.
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&arts[i]); err != nil {
			return nil, nil, fmt.Errorf("%s: not a shard artifact: %w", files[i], err)
		}
		if arts[i].Schema != store.SchemaVersion {
			return nil, nil, fmt.Errorf("%s: artifact schema v%d, this build reads v%d",
				files[i], arts[i].Schema, store.SchemaVersion)
		}
		rj, err := json.Marshal([]any{arts[i].Spec, arts[i].Machines})
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			runJSON = rj
		} else if !bytes.Equal(rj, runJSON) {
			return nil, nil, fmt.Errorf("%s: produced by a different run spec than %s", files[i], files[0])
		}
	}
	n := arts[0].ShardCount
	if n < 1 || n > len(arts) {
		return nil, nil, fmt.Errorf("incomplete partition: %d artifacts of %d shards", len(arts), n)
	}
	byIndex := make([]string, n+1)
	for i, art := range arts {
		if art.ShardCount != n {
			return nil, nil, fmt.Errorf("%s: shard count %d, expected %d", files[i], art.ShardCount, n)
		}
		if art.ShardIndex < 1 || art.ShardIndex > n {
			return nil, nil, fmt.Errorf("%s: shard index %d out of 1..%d", files[i], art.ShardIndex, n)
		}
		if byIndex[art.ShardIndex] != "" {
			return nil, nil, fmt.Errorf("%s and %s are both shard %d/%d",
				byIndex[art.ShardIndex], files[i], art.ShardIndex, n)
		}
		byIndex[art.ShardIndex] = files[i]
	}
	for i := 1; i <= n; i++ {
		if byIndex[i] == "" {
			return nil, nil, fmt.Errorf("incomplete partition: shard %d/%d missing", i, n)
		}
	}

	spec := arts[0].Spec
	if spec.Figure != "" || len(spec.Figures) == 0 {
		return nil, nil, fmt.Errorf("%s: artifact spec must list its subcommands under figures", files[0])
	}
	machines := arts[0].Machines
	for name, p := range machines {
		if err := p.Validate(); err != nil {
			return nil, nil, fmt.Errorf("%s: pinned machine %q: %w", files[0], name, err)
		}
	}
	req, err := spec.Resolve(func(name string) (profile.Profile, error) {
		p, ok := machines[name]
		if !ok {
			return profile.Profile{}, fmt.Errorf("artifact pins no machine %q", name)
		}
		return p, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", files[0], err)
	}
	return arts, req, nil
}

// runMerge implements the merge subcommand: validate that the given
// artifacts form one complete partition of one run, preload their cells
// into an in-memory store, and replay the recorded subcommands against
// it. Cells all hit the store, so the merge simulates nothing — and if
// an artifact were somehow missing a cell, the replay would recompute
// it, yielding the same bytes (cells are pure functions of their keys).
func runMerge(files []string, par, itpar int, jsonOut bool, cacheDir string) error {
	blobs := make([][]byte, len(files))
	for i, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		blobs[i] = b
	}
	arts, req, err := decodeShards(files, blobs)
	if err != nil {
		return err
	}
	printShardBalance(os.Stderr, files, arts)

	mem := store.NewMem()
	for _, art := range arts {
		for _, doc := range art.Cells {
			if err := mem.Put(doc.Key, doc); err != nil {
				return err
			}
		}
	}

	r := core.NewRunnerFor(req.Profile)
	r.Parallelism = par
	req.Configure(r)
	r.IterParallelism = itpar
	r.Store = mem
	if cacheDir != "" {
		// Also persist the merged cells, so the union of shard runs
		// leaves behind the same warm store a single-shot -cache-dir run
		// would have.
		dir, err := store.Open(cacheDir)
		if err != nil {
			return err
		}
		for _, doc := range mem.Docs() {
			if err := dir.Put(doc.Key, doc); err != nil {
				return err
			}
		}
		r.Store = store.NewTiered(mem, dir)
	}

	o := &options{out: os.Stdout, json: jsonOut}
	for _, cmd := range arts[0].Spec.Figures {
		if err := dispatch(r, cmd, req, o); err != nil {
			return err
		}
	}
	// Merge is always store-backed (the shard cells), so the footer
	// prints for every replayed command set, like any -cache-dir run.
	printCacheSummary(r, o)
	return nil
}
