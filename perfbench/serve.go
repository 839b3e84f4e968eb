package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvmasim/internal/core"
	"uvmasim/internal/metrics"
	"uvmasim/internal/profile"
	"uvmasim/internal/serve"
)

// serve-mix traffic. The rate and the cold share follow the ledger: 90%
// warm requests for five figures at default iterations and seed, served
// from the cell cache, and 10% cold fig7 requests at four iterations
// with a fresh seed, which simulate.
const (
	serveRate  = 100.0 // requests/s of the fixed-rate open loop
	coldFrac   = 0.1
	coldIters  = 4
	coldSample = 4 // cold responses recomputed in-process per run
	// latencyLimit is the p99 limit (from due time) a sweep step must
	// meet for its rate to count towards serve.max_rps.
	latencyLimit = 0.050
	// sweepSeconds is the length of each step of the capacity sweep.
	sweepSeconds = 1.0
)

var warmFigures = []string{"fig6", "fig7", "fig9", "fig12", "fig14"}

func warmSpec(i int) []byte { return []byte(fmt.Sprintf(`{"figure":%q}`, warmFigures[i])) }

func coldSpec(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"figure":"fig7","iters":%d,"seed":%d}`, coldIters, seed))
}

// coldSeed gives cold request i of a run its own base seed, apart from
// the warm specs' default seed 1 and from every other run's seeds.
func coldSeed(runSeed int64, i int) int64 { return 1000 + (runSeed&0xffffff)*1_000_000 + int64(i) }

// rig is one served instance: the server as `uvmbench serve -par 1`
// configures it, on a loopback listener, with a client of at most nproc
// connections and a timing wrapper around the server's handler.
type rig struct {
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve has returned
	url    string
	client *http.Client
	refs   [][]byte // warm reference responses, by warm figure

	mu      sync.Mutex
	handler map[string]time.Duration // by request id
	tr      atomic.Pointer[tracer]
	reqSeq  atomic.Int64
}

// discardWriter drops the server's request log after it was formatted,
// so the log line's cost stays on the request path (io.Discard would
// let the logger skip formatting).
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func newRig(nproc int) (*rig, error) {
	srv := serve.New(serve.Config{
		Parallelism:    1,
		Registry:       metrics.New(),
		Log:            log.New(discardWriter{}, "", 0),
		DefaultProfile: profile.Default(),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &rig{done: make(chan struct{}), url: "http://" + ln.Addr().String(),
		handler: make(map[string]time.Duration)}
	inner := srv.Handler()
	g.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
		sp := g.tr.Load().begin(layerHandler, r.Header.Get("X-Bench-Kind"), parent)
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		d := time.Since(t0)
		sp.end()
		if id != "" {
			g.mu.Lock()
			g.handler[id] = d
			g.mu.Unlock()
		}
	}), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(g.done)
		g.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	g.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		DisableCompression:  true,
	}}
	return g, nil
}

// close stops the server and waits for it.
func (g *rig) close() {
	g.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.hs.Shutdown(ctx); err != nil {
		g.hs.Close()
	}
	<-g.done
}

// post sends one experiment spec and returns the status and body.
func (g *rig) post(spec []byte, kind, id string, parent int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, g.url+"/v1/experiments", bytes.NewReader(spec))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	req.Header.Set("X-Bench-Kind", kind)
	req.Header.Set("X-Bench-Span", strconv.FormatInt(parent, 10))
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// scrape reads the server's /metrics and returns each unlabelled series.
func (g *rig) scrape() (map[string]float64, error) {
	resp, err := g.client.Get(g.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// serveSetup boots a rig and warms it: every warm spec is served once
// (simulating its cells) and must equal the CLI path's bytes for the
// same figure, and a few cold requests warm the context pool.
func serveSetup(b *bench) (*rig, error) {
	g, err := newRig(b.nproc)
	if err != nil {
		return nil, err
	}
	ref := newRunner(1, 1, 0)
	for i, fig := range warmFigures {
		status, body, err := g.post(warmSpec(i), "warm", fmt.Sprintf("warmup-%d", i), 0)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up %s: status %d: %s", fig, status, body)
		}
		if err != nil {
			g.close()
			return nil, err
		}
		_, doc, err := serve.Figure(ref, fig, cliOptions)
		if err != nil {
			g.close()
			return nil, err
		}
		want, err := core.RenderJSON(doc)
		if err != nil {
			g.close()
			return nil, err
		}
		if string(body) != want {
			b.problem(fmt.Errorf("warm-up %s response differs from uvmbench -json %s", fig, fig))
		}
		g.refs = append(g.refs, body)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := g.post(coldSpec(int64(10+i)), "cold", fmt.Sprintf("warmup-cold-%d", i), 0); err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

// reqOutcome is one open-loop request's result.
type reqOutcome struct {
	arrival
	due, sent, done time.Time
	handler         time.Duration
	bytes           int
	err             error
}

// openLoop sends the schedule from nproc goroutines over at most nproc
// connections: each takes the next due request, waits for its due time
// and sends it. When every goroutine is busy a due request waits, and
// that wait counts in its latency, which is timed from the due time.
// Warm responses must equal their references; cold ones must be valid
// fig7 documents, and those whose ordinal is in sample are kept for
// recomputation.
func (g *rig) openLoop(b *bench, sched []arrival, coldBase int, sample map[int][]byte, ph *phase) []reqOutcome {
	outs := make([]reqOutcome, len(sched))
	loop := ph.tracer().begin(layerPass, "open-loop", ph.rootID())
	g.tr.Store(ph.tracer())
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(time.Duration(a.due * float64(time.Second)))
				time.Sleep(time.Until(due))
				o := reqOutcome{arrival: a, due: due, sent: time.Now()}
				id := fmt.Sprintf("r%d", g.reqSeq.Add(1))
				kind, spec := "warm", []byte(nil)
				if a.cold {
					kind, spec = "cold", coldSpec(coldSeed(b.seed, coldBase+a.pick))
				} else {
					spec = warmSpec(a.pick)
				}
				sp := ph.tracer().begin(layerRequest, kind, loop.id)
				status, body, err := g.post(spec, kind, id, sp.id)
				sp.end()
				o.done = time.Now()
				if err == nil {
					err = checkResponse(a, status, body, g.refs)
				}
				o.err, o.bytes = err, len(body)
				g.mu.Lock()
				o.handler = g.handler[id]
				delete(g.handler, id)
				g.mu.Unlock()
				if err == nil && a.cold {
					mu.Lock()
					if _, ok := sample[a.pick]; ok {
						sample[a.pick] = body
					}
					mu.Unlock()
				}
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	loop.end()
	g.tr.Store(nil)
	return outs
}

// checkResponse validates one response: status, bytes or shape.
func checkResponse(a arrival, status int, body []byte, refs [][]byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if !a.cold {
		if !bytes.Equal(body, refs[a.pick]) {
			return fmt.Errorf("warm %s response differs from its set-up reference", warmFigures[a.pick])
		}
		return nil
	}
	var doc struct {
		Figure string          `json:"figure"`
		Data   json.RawMessage `json:"data"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("cold response is not JSON: %w", err)
	}
	if dec.More() {
		return errors.New("cold response holds more than one document")
	}
	if doc.Figure != "fig7" || len(doc.Data) == 0 {
		return fmt.Errorf("cold response names figure %q", doc.Figure)
	}
	return nil
}

// recomputeSample recomputes the sampled cold responses in-process and
// compares them byte for byte.
func recomputeSample(b *bench, coldBase int, sample map[int][]byte) {
	for ord, body := range sample {
		if body == nil {
			continue // that request failed and was counted already
		}
		r := newRunner(coldSeed(b.seed, coldBase+ord), 1, 0)
		r.Iterations = coldIters
		_, doc, err := serve.Figure(r, "fig7", cliOptions)
		var want string
		if err == nil {
			want, err = core.RenderJSON(doc)
		}
		if err == nil && want != string(body) {
			err = fmt.Errorf("cold request %d differs from its in-process recomputation", ord)
		}
		b.op(err)
	}
}

// pickSample chooses which cold ordinals of a schedule to recompute.
func pickSample(seed int64, sched []arrival) map[int][]byte {
	nCold := 0
	for _, a := range sched {
		if a.cold {
			nCold++
		}
	}
	rng := rand.New(rand.NewSource(seed))
	sample := make(map[int][]byte)
	for _, i := range rng.Perm(nCold)[:min(coldSample, nCold)] {
		sample[i] = nil
	}
	return sample
}

// split returns the warm and cold outcomes of a loop.
func split(outs []reqOutcome) (warm, cold []outcome) {
	for _, o := range outs {
		// Latency runs from the due time, so a stalled generator counts.
		x := outcome{latency: o.done.Sub(o.due).Seconds(), failed: o.err != nil}
		if o.cold {
			cold = append(cold, x)
		} else {
			warm = append(warm, x)
		}
	}
	return warm, cold
}

// runServeMix serves the warm/cold mix to an in-process server over
// loopback HTTP at a fixed rate. The traced run also steps the rate up
// to find the highest one that meets the latency limit.
func runServeMix(b *bench) error {
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var setups []float64
	var g *rig
	for i := 0; i < reps; i++ {
		freshGC()
		t0 := time.Now()
		ng, err := serveSetup(b)
		if err != nil {
			if g != nil {
				g.close()
			}
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if g != nil {
			g.close()
		}
		g = ng
	}
	defer g.close()

	coldBase := 0
	// loop runs one fixed-rate open loop for share of --seconds, checks
	// every response, and returns the outcomes.
	loop := func(share float64, schedSeed int64, rate float64, ph *phase) []reqOutcome {
		sched := schedule(schedSeed, rate, share*b.seconds, coldFrac, len(warmFigures))
		sample := pickSample(schedSeed, sched)
		outs := g.openLoop(b, sched, coldBase, sample, ph)
		for _, o := range outs {
			b.op(o.err)
		}
		recomputeSample(b, coldBase, sample)
		for _, a := range sched {
			if a.cold {
				coldBase++
			}
		}
		return outs
	}

	// Unlike the pass-based workloads, serve-mix times are not divided
	// by the host slowdown: the open loop cannot pause for calibration,
	// and a slowdown measured around it tracked the loop so loosely that
	// it widened the spread of five runs' medians from 5% to 8–10%.
	if !b.traced {
		freshGC()
		heap := startHeapSampler()
		outs := loop(1, b.seed, serveRate, nil)
		peak := heap.finish()
		warm, cold := split(outs)
		b.set("setup_s", "s", median(setups))
		b.set("main_p50_ms", "ms", 1000*median(latencies(warm)))
		b.set("contrast_p50_ms", "ms", 1000*median(latencies(cold)))
		b.set("peak_heap_mb", "MiB", peak)
		return nil
	}

	b.zeroLayers()
	freshGC()
	rt0 := readRuntime()
	plain := loop(0.5, b.seed, serveRate, nil)
	rt1 := readRuntime()
	b.set("runtime.gc_cpu_frac", "ratio", gcFrac(rt0, rt1))
	warm, cold := split(plain)
	if v, ok := tail(latencies(warm)); ok {
		b.set("serve.warm_p99_ms", "ms", 1000*v)
	}
	if v, ok := tail(latencies(cold)); ok {
		b.set("serve.cold_tail_ms", "ms", 1000*v)
	}
	b.set("serve.max_rps", "1/s", g.sweep(b, &coldBase))

	before, err := g.scrape()
	if err != nil {
		return err
	}
	ph, err := b.startPhase()
	if err != nil {
		return err
	}
	traced := loop(0.5, b.seed+1, serveRate, ph)
	shares, err := ph.finish()
	if err != nil {
		return err
	}
	after, err := g.scrape()
	if err != nil {
		return err
	}
	trWarm, _ := split(traced)
	b.set("trace.overhead_frac", "ratio", median(latencies(trWarm))/median(latencies(warm))-1)

	var hWarm, hCold, wait, late, size []float64
	for _, o := range traced {
		h := o.handler.Seconds()
		if o.cold {
			hCold = append(hCold, h)
		} else {
			hWarm = append(hWarm, h)
		}
		wait = append(wait, o.done.Sub(o.sent).Seconds()-h)
		late = append(late, o.sent.Sub(o.due).Seconds())
		size = append(size, float64(o.bytes))
	}
	b.set("serve.handler_ms.warm", "ms", 1000*median(hWarm))
	b.set("serve.handler_ms.cold", "ms", 1000*median(hCold))
	b.set("serve.client_wait_ms", "ms", 1000*median(wait))
	if v, ok := tail(late); ok {
		b.set("serve.gen_late_ms", "ms", 1000*v)
	}
	b.set("serve.response_kib", "KiB", mean(size)/1024)
	delta := func(name string) float64 { return after[name] - before[name] }
	b.set("serve.rejected", "count", delta("uvmbench_admission_rejections_total"))
	hits, misses := delta("uvmbench_cell_cache_hits_total"), delta("uvmbench_cell_cache_misses_total")
	if hits+misses > 0 {
		b.set("serve.cache_hit_frac", "ratio", hits/(hits+misses))
	}
	b.set("core.cache_hits", "count", hits)
	b.set("core.cache_misses", "count", misses)
	b.set("core.cells_simulated", "count", delta("uvmbench_cells_simulated_total"))
	b.set("core.cell_busy_s", "s", delta("uvmbench_cell_seconds_sum"))
	if err := b.serveProbes(g); err != nil {
		return err
	}
	b.slowdown(b.nproc) // for host.slowdown only
	return b.finishTraced(ph, shares)
}

// serveProbes times the serve layer's steps from outside, on the warm
// specs: spec parsing, figure assembly on a warm runner, and the
// handler's JSON encoding.
func (b *bench) serveProbes(g *rig) error {
	const n = 200
	r := newRunner(1, 1, 0)
	var parse, fig, enc []float64
	for i := range warmFigures {
		if _, _, err := serve.Figure(r, warmFigures[i], cliOptions); err != nil { // warm the cache
			return err
		}
	}
	var buf bytes.Buffer
	for k := 0; k < n; k++ {
		i := k % len(warmFigures)
		t0 := time.Now()
		req, err := serve.ParseSpec(bytes.NewReader(warmSpec(i)), profile.Default())
		t1 := time.Now()
		if err != nil {
			return err
		}
		_, doc, err := serve.Figure(r, req.Figures[0], req.Opt)
		t2 := time.Now()
		if err != nil {
			return err
		}
		buf.Reset()
		e := json.NewEncoder(&buf)
		e.SetIndent("", "  ")
		err = e.Encode(doc)
		t3 := time.Now()
		if err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), g.refs[i]) {
			return fmt.Errorf("%s: in-process encoding differs from the served bytes", warmFigures[i])
		}
		parse = append(parse, t1.Sub(t0).Seconds())
		fig = append(fig, t2.Sub(t1).Seconds())
		enc = append(enc, t3.Sub(t2).Seconds())
	}
	b.set("serve.parse_us", "us", 1e6*median(parse))
	b.set("serve.figure_us.warm", "us", 1e6*median(fig))
	b.set("serve.encode_us", "us", 1e6*median(enc))
	return nil
}

// sweepRates is the stepped rate ladder of the capacity sweep, in
// requests/s. It brackets the point where the mix stops meeting the
// limit on a 2-core machine; a machine beyond the top step reports the
// top step.
var sweepRates = []float64{100, 200, 300, 400, 500, 600, 700}

// maxMiss is the share of requests that may miss latencyLimit: p99
// meets the limit exactly when at most 1% miss it.
const maxMiss = 0.01

// sweep offers the mix at each rate of the ladder for sweepSeconds and
// returns the highest rate whose p99 latency, timed from
// due time and counting failed requests as over the limit, meets
// latencyLimit. A growing backlog shows as late requests, so it misses
// the limit too. The rate is interpolated between the last step that
// met the limit and the first that did not, on the share of requests
// that missed it, which uses every request of both steps rather than
// the one at the 99th rank.
func (g *rig) sweep(b *bench, coldBase *int) float64 {
	prevRate, prevMiss := 0.0, 0.0
	for k, rate := range sweepRates {
		sched := schedule(b.seed*7919+int64(k), rate, sweepSeconds, coldFrac, len(warmFigures))
		outs := g.openLoop(b, sched, *coldBase, nil, nil)
		all := make([]outcome, 0, len(outs))
		for _, o := range outs {
			b.op(o.err)
			all = append(all, outcome{latency: o.done.Sub(o.due).Seconds(), failed: o.err != nil})
		}
		for _, a := range sched {
			if a.cold {
				*coldBase++
			}
		}
		miss := missFrac(all, latencyLimit)
		fmt.Fprintf(os.Stderr, "sweep %4.0f req/s: %4d requests, %.2f%% over %.0f ms\n",
			rate, len(all), 100*miss, 1000*latencyLimit)
		if miss > maxMiss {
			return prevRate + (rate-prevRate)*(maxMiss-prevMiss)/(miss-prevMiss)
		}
		prevRate, prevMiss = rate, miss
	}
	return prevRate
}
