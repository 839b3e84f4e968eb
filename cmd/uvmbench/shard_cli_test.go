package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvmasim/internal/serve"
)

// TestShardMergeByteIdentity is the tentpole's property test: for every
// partition width n, sharding `all` into n artifacts and merging them
// reproduces the unsharded text and JSON output byte for byte — with
// shards produced at -par 4 and merges replayed at both -par 1 and 4.
func TestShardMergeByteIdentity(t *testing.T) {
	const iters = "2"
	wantText := capture(t, "-i", iters, "-par", "1", "all")
	wantJSON := capture(t, "-i", iters, "-par", "1", "-json", "all")
	if wantText == "" || wantJSON == "" {
		t.Fatal("unsharded reference output is empty")
	}

	for _, n := range []int{1, 2, 3, 5, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			shardFlags := []string{"-i", iters, "-par", "4"}
			if n == 3 {
				// Shards that fan out iterations and keep a store.
				shardFlags = append(shardFlags, "-itpar", "2", "-cache-dir", filepath.Join(dir, "shardstore"))
			}
			files := make([]string, n)
			for i := 1; i <= n; i++ {
				art, _ := captureStderr(t, append(shardFlags, "-shard", fmt.Sprintf("%d/%d", i, n), "all")...)
				files[i-1] = filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
				if err := os.WriteFile(files[i-1], []byte(art), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			mergeArgs := append([]string{"-par", "1", "merge"}, files...)
			if got := capture(t, mergeArgs...); got != wantText {
				t.Errorf("merged text diverges from unsharded output\nmerged:\n%.2000s\nwant:\n%.2000s", got, wantText)
			}
			mergeArgs = append([]string{"-par", "4", "merge"}, files...)
			if got := capture(t, mergeArgs...); got != wantText {
				t.Errorf("-par 4 merge diverges from unsharded output")
			}
			mergeArgs = append([]string{"-par", "4", "-json", "merge"}, files...)
			if got := capture(t, mergeArgs...); got != wantJSON {
				t.Errorf("merged JSON diverges from unsharded -json output")
			}
			if n == 3 {
				// A merge into a store seeds it: the suite then reruns on
				// that store byte-identically without simulating a cell.
				cells := filepath.Join(dir, "cellstore")
				captureStderr(t, append([]string{"-cache-dir", cells, "-json", "merge"}, files...)...)
				got, footer := captureStderr(t, "-i", iters, "-cache-dir", cells, "all")
				if got != wantText {
					t.Error("rerun on the merge-seeded store diverges from unsharded output")
				}
				if hits, simulated := storeTraffic(t, footer); hits == 0 || simulated != 0 {
					t.Errorf("rerun on the merge-seeded store: %d store hits, %d cells simulated", hits, simulated)
				}
			}
		})
	}
}

// TestShardArtifactDeterminism: a shard artifact is byte-identical at
// any executor parallelism (cells serialize sorted by key, not in
// completion order) — except the actual-seconds field, which records
// real wall time and is normalized to zero before comparing.
func TestShardArtifactDeterminism(t *testing.T) {
	stripActual := func(raw string) (string, shardArtifact) {
		t.Helper()
		var art shardArtifact
		if err := json.Unmarshal([]byte(raw), &art); err != nil {
			t.Fatalf("artifact is not valid JSON: %v", err)
		}
		art.ActualCellSeconds = 0
		b, err := json.Marshal(art)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), art
	}
	serial, art := stripActual(capture(t, "-i", "2", "-par", "1", "-shard", "1/2", "all"))
	wide, _ := stripActual(capture(t, "-i", "2", "-par", "8", "-itpar", "4", "-shard", "1/2", "all"))
	if serial != wide {
		t.Error("shard artifact differs between -par 1 and -par 8 -itpar 4")
	}
	if art.ShardIndex != 1 || art.ShardCount != 2 {
		t.Errorf("artifact labeled %d/%d, want 1/2", art.ShardIndex, art.ShardCount)
	}
	if len(art.Cells) == 0 {
		t.Error("shard 1/2 of `all` captured no cells")
	}
	if art.EstimatedCellSeconds <= 0 {
		t.Errorf("estimated cell seconds = %g, want > 0", art.EstimatedCellSeconds)
	}
}

// TestShardCostEstimatesConsistent: the per-shard static cost estimates
// cover the whole cell grid — for any partition width, the shard
// estimates sum to the 1-shard total (each cell is estimated by a pure
// function of its key, and the partition is a disjoint cover).
func TestShardCostEstimatesConsistent(t *testing.T) {
	artifact := func(args ...string) shardArtifact {
		t.Helper()
		var art shardArtifact
		if err := json.Unmarshal([]byte(capture(t, args...)), &art); err != nil {
			t.Fatal(err)
		}
		return art
	}
	whole := artifact("-i", "2", "-shard", "1/1", "all")
	if whole.EstimatedCellSeconds <= 0 {
		t.Fatalf("whole-grid estimate = %g, want > 0", whole.EstimatedCellSeconds)
	}
	for _, n := range []int{2, 3} {
		var sum float64
		var cells int
		for i := 1; i <= n; i++ {
			art := artifact("-i", "2", "-shard", fmt.Sprintf("%d/%d", i, n), "all")
			sum += art.EstimatedCellSeconds
			cells += len(art.Cells)
		}
		if cells != len(whole.Cells) {
			t.Errorf("n=%d: shards cover %d cells, whole grid has %d", n, cells, len(whole.Cells))
		}
		if diff := math.Abs(sum-whole.EstimatedCellSeconds) / whole.EstimatedCellSeconds; diff > 1e-9 {
			t.Errorf("n=%d: shard estimates sum to %g, whole grid %g (rel diff %g)",
				n, sum, whole.EstimatedCellSeconds, diff)
		}
	}
}

// TestMergeValidation pins merge's failure modes: incomplete partitions,
// duplicate shards, mismatched specs, and garbage files all fail with a
// diagnostic instead of producing wrong output.
func TestMergeValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	s1 := write("s1.json", capture(t, "-i", "1", "-shard", "1/2", "fig12"))
	s2 := write("s2.json", capture(t, "-i", "1", "-shard", "2/2", "fig12"))
	other := write("other.json", capture(t, "-i", "2", "-shard", "1/2", "fig12"))
	garbage := write("garbage.json", "{ not json")

	cases := map[string][]string{
		"no files":             {"merge"},
		"incomplete partition": {"merge", s1},
		"duplicate shard":      {"merge", s1, s1},
		"mismatched specs":     {"merge", s1, other},
		"garbage artifact":     {"merge", s1, garbage},
		// A complete 1/1 partition written by the build before the spec
		// became serve.Spec: its layout no longer decodes.
		"previous format": {"merge", filepath.Join("testdata", "shard_prev_format.json")},
	}
	for name, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("%s: merge should fail", name)
		}
	}
	// Sanity: the intact pair does merge.
	if err := run([]string{"merge", s1, s2}); err != nil {
		t.Errorf("valid merge failed: %v", err)
	}
	// Artifacts embed the resolved spec, so flags that resolve to the
	// same run (an explicit default value, the default machine by name)
	// merge with the default invocation's shards.
	same := write("same.json", capture(t, "-i", "1", "-jobs", "8", "-profile", "a100-40g-pcie4", "-shard", "2/2", "fig12"))
	if err := run([]string{"merge", s1, same}); err != nil {
		t.Errorf("shards of equivalent specs refuse to merge: %v", err)
	}
}

// TestShardFlagValidation covers the -shard flag's own error surface.
func TestShardFlagValidation(t *testing.T) {
	for _, bad := range []string{"x", "0/2", "3/2", "1/0", "1/2/3", "a/b"} {
		if err := run([]string{"-shard", bad, "fig12"}); err == nil {
			t.Errorf("-shard %s should be rejected", bad)
		}
	}
	for _, sub := range []string{"trace", "list", "profiles"} {
		if err := run([]string{"-shard", "1/2", sub}); err == nil ||
			!strings.Contains(err.Error(), "sharded") {
			t.Errorf("-shard %s should be rejected as unshardable", sub)
		}
	}
	if err := run([]string{"-shard", "1/2", "merge"}); err == nil {
		t.Error("-shard with merge should be rejected")
	}
}

// TestCacheDirWarmRerun: a second run against the same -cache-dir
// prints byte-identical output and simulates no cell — every memory
// miss is a store hit, which is what makes the warm rerun fast.
func TestCacheDirWarmRerun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cellstore")
	cold, coldFooter := captureStderr(t, "-i", "2", "-cache-dir", dir, "fig9,fig12,oversub")
	warm, warmFooter := captureStderr(t, "-i", "2", "-cache-dir", dir, "fig9,fig12,oversub")
	if cold != warm {
		t.Error("warm -cache-dir rerun diverges from cold run")
	}
	entries, err := os.ReadDir(filepath.Join(dir, "v1"))
	if err != nil || len(entries) == 0 {
		t.Errorf("cache dir not populated (err=%v, entries=%d)", err, len(entries))
	}
	if hits, simulated := storeTraffic(t, coldFooter); hits != 0 || simulated == 0 {
		t.Errorf("cold run should simulate every cell: %d store hits, %d simulated", hits, simulated)
	}
	if hits, simulated := storeTraffic(t, warmFooter); hits == 0 || simulated != 0 {
		t.Errorf("warm rerun should simulate 0 cells: %d store hits, %d simulated", hits, simulated)
	}
}

// storeTraffic parses the text cache footer of a store-backed run into
// store hits and store misses; a store miss is a simulated cell.
func storeTraffic(t *testing.T, footer string) (hits, misses int) {
	t.Helper()
	if _, err := fmt.Sscanf(footer, "cache: %d memory hits, %d memory misses; store: %d hits, %d misses",
		new(int), new(int), &hits, &misses); err != nil {
		t.Fatalf("unparsable cache footer %q: %v", footer, err)
	}
	return hits, misses
}

// TestUpfrontValidation: every path-like flag, the subcommand list and
// every name in the run spec are validated before any simulation, so
// typos fail fast even when the requested run would take minutes.
func TestUpfrontValidation(t *testing.T) {
	// A huge iteration count makes these hang for minutes if validation
	// happens after the run; the deadline catches regressions.
	cases := map[string][]string{
		"bad cache-dir":        {"-i", "100000", "-cache-dir", "/dev/null/nope", "fig12"},
		"bad shard":            {"-i", "100000", "-shard", "9/3", "fig12"},
		"bad out for trace":    {"-i", "100000", "-out", "/dev/null/nope", "trace"},
		"unknown late command": {"-i", "100000", "fig12,bogus"},
	}
	for name, args := range cases {
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: expected an error", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: validation did not fail fast", name)
		}
	}

	// The CLI and the server resolve one spec type through one path: an
	// invocation fails before printing anything exactly when the same
	// spec POSTed to the server gets a 400.
	h := serve.New(serve.Config{Log: log.New(io.Discard, "", 0)}).Handler()
	post := func(body string) int {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/experiments", strings.NewReader(body)))
		return w.Code
	}
	bad := []struct {
		name string
		args []string
		body string
	}{
		{"negative jobs", []string{"-i", "2", "-jobs", "-1", "fig7,fig14"}, `{"figures":["fig7","fig14"],"iters":2,"jobs":-1}`},
		{"bad workload", []string{"-workload", "nope", "fig7,compare-profiles"}, `{"figures":["fig7","compare-profiles"],"workload":"nope"}`},
		{"bad profiles", []string{"-profiles", "nope", "fig7,compare-profiles"}, `{"figures":["fig7","compare-profiles"],"profiles":["nope"]}`},
		{"bad size", []string{"-size", "giga", "fig7"}, `{"figure":"fig7","size":"giga"}`},
		{"negative iters", []string{"-i", "-1", "table3"}, `{"figure":"table3","iters":-1}`},
	}
	for _, c := range bad {
		out, err := runCaptured(append([]string{"-json"}, c.args...)...)
		if err == nil {
			t.Errorf("%s: CLI run succeeded, want an error", c.name)
		}
		if out != "" {
			t.Errorf("%s: CLI printed %d bytes before failing", c.name, len(out))
		}
		if code := post(c.body); code != http.StatusBadRequest {
			t.Errorf("%s: POST status %d, want 400", c.name, code)
		}
	}

	// Zero means the default on both surfaces: -jobs 0 is fig14's
	// default batch of 8, not an error.
	if zero, eight := capture(t, "-i", "1", "-json", "-jobs", "0", "fig14"),
		capture(t, "-i", "1", "-json", "-jobs", "8", "fig14"); zero != eight {
		t.Error("-jobs 0 output differs from -jobs 8")
	}
	if code := post(`{"figure":"fig14","iters":1,"jobs":0}`); code != http.StatusOK {
		t.Errorf(`"jobs": 0 POST status %d, want 200`, code)
	}
}
