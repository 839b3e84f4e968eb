package main

import (
	"os"
	"path/filepath"
	"testing"

	"uvmasim/internal/serve"
	"uvmasim/internal/workloads"
)

// FuzzParseShard: every -shard value either errors or names a shard
// inside its partition.
func FuzzParseShard(f *testing.F) {
	for _, s := range []string{"1/1", "2/3", "0/2", "3/2", "1/0", "a/b", "1/2/3", "-1/2", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		idx, n, err := parseShard(s)
		if err == nil && (n < 1 || idx < 1 || idx > n) {
			t.Errorf("parseShard(%q) = %d/%d, outside its partition", s, idx, n)
		}
	})
}

// FuzzDecodeShards: merge's decode-and-validate step either errors or
// yields a complete partition whose spec names only resolvable things.
// Nothing simulates, so every input is cheap.
func FuzzDecodeShards(f *testing.F) {
	prev, err := os.ReadFile(filepath.Join("testdata", "shard_prev_format.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prev)
	f.Add([]byte(`{"schema":1,"spec":{"figures":["table3"]},"machines":{},"shard_index":1,"shard_count":1,"cells":[]}`))
	f.Add([]byte(`{"schema":1,"spec":{"figures":["all"],"size":"tiny"},"shard_index":1,"shard_count":4000000000}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		arts, req, err := decodeShards([]string{"a.json"}, [][]byte{blob})
		if err != nil {
			return
		}
		if len(arts) != 1 || arts[0].ShardCount != 1 {
			t.Fatalf("one artifact accepted as a partition of %d", arts[0].ShardCount)
		}
		for _, cmd := range arts[0].Spec.Figures {
			if !specFigure(cmd) {
				t.Errorf("accepted artifact replays unknown subcommand %q", cmd)
			}
		}
		checkResolved(t, req)
	})
}

// checkResolved asserts that every name in a resolved request resolves.
func checkResolved(t *testing.T, req *serve.Request) {
	t.Helper()
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
	if err := req.Profile.Validate(); err != nil {
		t.Error(err)
	}
	if len(req.Opt.Profiles) == 0 {
		t.Error("resolved no compare-profiles machines")
	}
}
