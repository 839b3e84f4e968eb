package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvmasim/internal/store"
)

func TestScheduleRepeatsForSeed(t *testing.T) {
	a := schedule(42, serveRate, 5, coldFrac, len(warmFigures))
	b := schedule(42, serveRate, 5, coldFrac, len(warmFigures))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from one seed differ")
	}
	if c := schedule(43, serveRate, 5, coldFrac, len(warmFigures)); reflect.DeepEqual(a, c) {
		t.Fatal("schedules from different seeds are equal")
	}
	// 500 expected arrivals: the count and cold share stay near the
	// configured rate and mix.
	if n := len(a); n < 400 || n > 600 {
		t.Fatalf("%d arrivals in 5 s at %v/s", n, serveRate)
	}
	cold := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatal("arrivals out of due order")
		}
		if x.cold {
			if x.pick != cold {
				t.Fatalf("cold ordinal %d, want %d", x.pick, cold)
			}
			cold++
		} else if x.pick < 0 || x.pick >= len(warmFigures) {
			t.Fatalf("warm pick %d out of range", x.pick)
		}
	}
	if cold == 0 || cold > len(a)/4 {
		t.Fatalf("%d cold of %d arrivals", cold, len(a))
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so percentile must sort
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 0, false},   // 9 beyond
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(xs(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v, ok := tail(xs(500)); !ok || v != 450 {
		t.Errorf("tail of 500 samples = %v (ok=%v), want p90 = 450", v, ok)
	}
	if _, ok := tail(xs(30)); ok {
		t.Error("tail of 30 samples reported a percentile")
	}
}

func TestFailuresCountAndMissEveryLimit(t *testing.T) {
	outs := []outcome{
		{latency: 0.001},
		{latency: 0.002},
		{latency: 0, failed: true}, // a refusal answers fast but still misses
		{latency: 0.2},
	}
	if got := missFrac(outs, 0.1); got != 0.5 {
		t.Fatalf("missFrac = %v, want 0.5", got)
	}
	if got := missFrac(outs, 1e9); got != 0.25 {
		t.Fatalf("missFrac with an unbounded limit = %v, want 0.25", got)
	}
	if got := len(latencies(outs)); got != 3 {
		t.Fatalf("latencies kept %d samples, want the 3 that succeeded", got)
	}

	// A refused request is a failed operation of the run.
	err := checkResponse(arrival{}, http.StatusTooManyRequests, []byte(`{"error":"busy"}`), [][]byte{[]byte("x")})
	if err == nil {
		t.Fatal("a 429 passed the response check")
	}
	b := &bench{metrics: map[string]metric{}}
	b.op(nil)
	b.op(err)
	if b.attempted != 2 || b.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", b.attempted, b.failed)
	}
	warm, cold := split([]reqOutcome{
		{due: time.Unix(0, 0), done: time.Unix(1, 0), err: err},
		{arrival: arrival{cold: true}, due: time.Unix(0, 0), done: time.Unix(2, 0)},
	})
	if len(warm) != 1 || !warm[0].failed || len(cold) != 1 || cold[0].latency != 2 {
		t.Fatalf("split = %+v, %+v", warm, cold)
	}
}

func TestCheckResponse(t *testing.T) {
	refs := [][]byte{[]byte("ref0")}
	if err := checkResponse(arrival{pick: 0}, 200, []byte("ref0"), refs); err != nil {
		t.Fatal(err)
	}
	if err := checkResponse(arrival{pick: 0}, 200, []byte("ref1"), refs); err == nil {
		t.Fatal("a warm response differing from its reference passed")
	}
	cold := arrival{cold: true}
	if err := checkResponse(cold, 200, []byte(`{"figure":"fig7","data":{}}`), refs); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"figure":"fig6","data":{}}`, `not json`, `{"figure":"fig7","data":{}}{}`} {
		if err := checkResponse(cold, 200, []byte(body), refs); err == nil {
			t.Errorf("cold response %q passed", body)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.spans = []span{
		{id: 1, layer: layerPass, start: 0, end: ms(100)},
		{id: 2, parent: 1, layer: layerFigure, start: ms(10), end: ms(50)},
		{id: 3, parent: 1, layer: layerFigure, start: ms(30), end: ms(70)}, // overlaps span 2
		{id: 4, parent: 2, layer: layerStore, start: ms(20), end: ms(25)},
	}
	self := tr.selfTimes()
	want := map[string]float64{layerPass: 0.040, layerFigure: 0.075, layerStore: 0.005}
	for l, w := range want {
		if d := self[l] - w; d > 1e-9 || d < -1e-9 {
			t.Errorf("self time of %s = %v, want %v", l, self[l], w)
		}
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	tids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Cat == layerFigure {
			tids[e.Tid] = true
		}
	}
	if len(tids) != 2 {
		t.Fatalf("overlapping figure spans share %d rows, want 2", len(tids))
	}
}

func TestPackageShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1.0000001
		}
	}
	pprof.StopCPUProfile()
	sink = x
	shares, err := packageShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
	// The test binary names this package by its import path.
	if busy := shares["uvmasim/perfbench"] + shares["time"]; busy < 0.5 {
		t.Fatalf("the busy loop's packages hold %v of the profile: %v", busy, shares)
	}
	if _, err := packageShares([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}

var sink float64

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"uvmasim/internal/uvm.(*Manager).touch": "uvmasim/internal/uvm",
		"math/rand.(*Rand).Int63":               "math/rand",
		"runtime.mallocgc":                      "runtime",
		"main.main":                             "main",
		"":                                      "(unknown)",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	shares := map[string]float64{"uvmasim/internal/workloads": 0.1, "uvmasim/internal/workloads/darknet": 0.2, "uvmasim/internal/uvmx": 0.5}
	if got := layerShare(shares, "workloads"); got < 0.3-1e-12 || got > 0.3+1e-12 {
		t.Errorf("workloads share = %v, want 0.3", got)
	}
	if got := layerShare(shares, "uvm"); got != 0 {
		t.Errorf("uvm share = %v, want 0", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and this program's in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		t.Skip("BENCHMARK.json not found")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if runners[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestOpenLoopServesMix drives a real server with a short schedule from
// concurrent goroutines, traced, so the race detector sees the handler
// timings, the span recorder and the sample map shared between them.
func TestOpenLoopServesMix(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and simulates the warm figures")
	}
	b := &bench{workload: "serve-mix", seed: 7, seconds: 1, nproc: 2, work: t.TempDir(), metrics: map[string]metric{}}
	g, err := serveSetup(b)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	sched := schedule(b.seed, 40, 1, 0.25, len(warmFigures))
	sample := pickSample(b.seed, sched)
	tr := newTracer()
	ph := &phase{tr: tr, root: tr.begin(layerWorkload, b.workload, 0)}
	outs := g.openLoop(b, sched, 0, sample, ph)
	ph.root.end()
	for _, o := range outs {
		b.op(o.err)
		if o.handler <= 0 {
			t.Errorf("request due at %.3f s has no handler time", o.due.Sub(outs[0].due).Seconds())
		}
	}
	recomputeSample(b, 0, sample)
	if b.failed != 0 || len(b.problems) != 0 {
		t.Fatalf("%d of %d operations failed: %v", b.failed, b.attempted, b.problems)
	}
	if got, want := tr.spanCount(layerRequest), len(sched); got != want {
		t.Errorf("%d request spans, want %d", got, want)
	}
	if got, want := tr.spanCount(layerHandler), len(sched); got != want {
		t.Errorf("%d handler spans, want %d", got, want)
	}
}

func TestTimedStoreConcurrent(t *testing.T) {
	var cur atomic.Int64
	ts := &timedStore{inner: store.NewMem(), tr: newTracer(), cur: &cur}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := store.Key{Kind: "k", Seed: int64(w*100 + i)}
				if err := ts.Put(k, store.CellDoc{Schema: store.SchemaVersion, Key: k, Breakdowns: []store.Breakdown{{}}}); err != nil {
					t.Error(err)
				}
				if _, ok := ts.Get(k); !ok {
					t.Error("get after put missed")
				}
			}
		}(w)
	}
	wg.Wait()
	if len(ts.gets) != 200 || len(ts.puts) != 200 || ts.hits != 200 {
		t.Fatalf("gets %d puts %d hits %d, want 200 each", len(ts.gets), len(ts.puts), ts.hits)
	}
	if n := ts.tr.spanCount(layerStore); n != 400 {
		t.Fatalf("%d store spans, want 400", n)
	}
}
