package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"uvmasim/internal/core"
	"uvmasim/internal/profile"
	"uvmasim/internal/serve"
	"uvmasim/internal/store"
)

// cliOptions are the figure options `uvmbench -json all` passes with
// every flag at its default.
var cliOptions = serve.FigureOptions{Jobs: 8, Workload: "gemm"}

// newRunner builds a runner the way the CLI does for `-seed seed -par par
// -itpar itpar`, with no store.
func newRunner(seed int64, par, itpar int) *core.Runner {
	r := core.NewRunnerFor(profile.Default())
	r.BaseSeed = seed
	r.Parallelism = par
	r.IterParallelism = itpar
	return r
}

// passTimes collects the per-figure and render wall times of the traced
// passes of one kind.
type passTimes struct {
	figure map[string][]float64 // seconds per figure, one entry per pass
	render []float64            // seconds in core.RenderJSON, summed per pass
}

func newPassTimes() *passTimes { return &passTimes{figure: make(map[string][]float64)} }

// renderAll runs the `all` figure list on r as `uvmbench -json all` does
// — serve.Figure then core.RenderJSON per figure, documents
// concatenated — and returns the output. With a tracer it records a
// figure span per figure and a render span per document under parent,
// and adds their times to pt.
func renderAll(r *core.Runner, tr *tracer, parent int64, cur *atomic.Int64, pt *passTimes) ([]byte, error) {
	var out bytes.Buffer
	var renderSum float64
	for _, fig := range serve.AllFigures {
		fs := tr.begin(layerFigure, fig, parent)
		if cur != nil {
			cur.Store(fs.id)
		}
		_, doc, err := serve.Figure(r, fig, cliOptions)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig, err)
		}
		rs := tr.begin(layerRender, fig, fs.id)
		s, err := core.RenderJSON(doc)
		rs.end()
		fs.end()
		if err != nil {
			return nil, fmt.Errorf("%s: render: %w", fig, err)
		}
		out.WriteString(s)
		if tr != nil && pt != nil {
			pt.figure[fig] = append(pt.figure[fig], time.Since(fs.start).Seconds())
			renderSum += time.Since(rs.start).Seconds() // rs ended just before fs
		}
	}
	if tr != nil && pt != nil {
		pt.render = append(pt.render, renderSum)
	}
	return out.Bytes(), nil
}

// cliReference runs `uvmbench -json -seed seed all` and returns its
// standard output, the artifact every in-process pass must reproduce.
func cliReference(cli string, seed int64) ([]byte, error) {
	cmd := exec.Command(cli, "-json", "-seed", fmt.Sprint(seed), "all")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("uvmbench -json all: %w: %s", err, stderr.String())
	}
	return out, nil
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }

// heapSampler records the peak heap occupied by live and not yet swept
// objects while it runs, polling runtime/metrics (which does not stop
// the world, unlike runtime.ReadMemStats).
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}

// runtimeCounters reads the process-wide allocation and GC CPU counters.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// gcFrac is the GC's share of the process CPU time between two reads.
// The runtime updates these counters at GC ends, so the share is only
// meaningful over a phase long enough to hold several collections.
func gcFrac(a, b runtimeCounters) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// simWork sums the simulated-work counts of a set of cell documents.
// They are pure functions of the cell grid and seed, so they repeat
// exactly across runs with the same seed: a change that only makes the
// simulator faster must leave them identical.
type simWork struct {
	pageFaults, faultBatches                   float64
	migrated, prefetched, writeback, evictions float64
	h2d, d2h                                   float64
	instructions, l1LoadAccesses, l1LoadMisses float64
	simulatedNs                                float64
}

func sumDocs(docs []store.CellDoc) simWork {
	var w simWork
	for _, d := range docs {
		c := d.Counters
		w.pageFaults += c.PageFaults
		w.faultBatches += c.FaultBatches
		w.migrated += c.MigratedBytes
		w.prefetched += c.PrefetchBytes
		w.writeback += c.WritebackBytes
		w.evictions += c.Evictions
		w.h2d += c.H2DBytes
		w.d2h += c.D2HBytes
		w.instructions += c.MemInst + c.FPInst + c.IntInst + c.CtrlInst
		w.l1LoadAccesses += c.L1LoadAccesses
		w.l1LoadMisses += c.L1LoadMisses
		for _, bd := range d.Breakdowns {
			w.simulatedNs += bd.TotalNs
		}
	}
	return w
}

// setSimWork reports the simulated-work counts as per-layer metrics.
func (b *bench) setSimWork(w simWork) {
	const gib = 1 << 30
	b.set("uvm.page_faults", "count", w.pageFaults)
	b.set("uvm.fault_batches", "count", w.faultBatches)
	b.set("uvm.migrated_gib", "GiB", w.migrated/gib)
	b.set("uvm.prefetch_gib", "GiB", w.prefetched/gib)
	b.set("uvm.evictions", "count", w.evictions)
	b.set("uvm.writeback_gib", "GiB", w.writeback/gib)
	b.set("pcie.h2d_gib", "GiB", w.h2d/gib)
	b.set("pcie.d2h_gib", "GiB", w.d2h/gib)
	b.set("gpu.instructions", "count", w.instructions)
	missRate := 0.0
	if w.l1LoadAccesses > 0 {
		missRate = w.l1LoadMisses / w.l1LoadAccesses
	}
	b.set("gpu.l1_load_miss_rate", "ratio", missRate)
	b.set("sim.simulated_s", "s", w.simulatedNs/1e9)
}

// cpuLayers are the packages whose flat CPU share the traced run
// reports, named by their directory under internal/.
var cpuLayers = []string{"uvm", "sim", "pcie", "hostmem", "gpu", "cuda", "workloads", "seedrng", "core", "store", "serve"}

// setCPUShares reports each layer's flat share of the CPU profile and
// prints the profile aggregated by package.
func (b *bench) setCPUShares(shares map[string]float64) {
	for _, l := range cpuLayers {
		b.set(l+".cpu_frac", "ratio", layerShare(shares, l))
	}
	type kv struct {
		pkg string
		v   float64
	}
	var all []kv
	for p, v := range shares {
		all = append(all, kv{p, v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	fmt.Fprintln(os.Stderr, "flat CPU by package (traced phase):")
	for i, e := range all {
		if i == 15 {
			break
		}
		fmt.Fprintf(os.Stderr, "  %6.2f%%  %s\n", 100*e.v, e.pkg)
	}
}

// freshGC starts a measured pass or phase from a collected heap, as a
// fresh `uvmbench` process starts: garbage left by the previous pass
// does not land in the next one, and each pass's collections (and so
// its peak heap) fall at the same points of its work.
func freshGC() { runtime.GC() }
