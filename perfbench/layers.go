package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"uvmasim/internal/serve"
	"uvmasim/internal/store"
)

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0. The workloads fill the two latency slots with their own
// operations (LEDGER.md maps them to the names the ledger uses):
//
//	             main_p50_ms          contrast_p50_ms
//	suite-cold   pass at nproc        serial pass
//	serve-mix    warm request         cold request
//	store-rerun  warm rerun pass      cold rerun pass
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"main_p50_ms", "ms"},
	{"contrast_p50_ms", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer lists the per-layer metrics every workload reports with
// --trace 1. A layer the workload does not exercise reports 0, which is
// the ledger's prediction for it (e.g. store.* on suite-cold).
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"uvm.cpu_frac", "ratio"}, {"uvm.page_faults", "count"}, {"uvm.fault_batches", "count"},
		{"uvm.migrated_gib", "GiB"}, {"uvm.prefetch_gib", "GiB"}, {"uvm.evictions", "count"},
		{"uvm.writeback_gib", "GiB"},
		{"uvm.demand_evict_ns", "ns"}, {"uvm.demand_evict_allocs", "count"},
		{"uvm.unregister_us", "us"}, {"uvm.unregister_allocs", "count"},

		{"sim.cpu_frac", "ratio"}, {"sim.simulated_s", "s"},
		{"sim.event_ns", "ns"}, {"sim.event_allocs", "count"},
		{"sim.link_reserve_ns", "ns"}, {"sim.link_reserve_allocs", "count"},

		{"pcie.cpu_frac", "ratio"}, {"pcie.h2d_gib", "GiB"}, {"pcie.d2h_gib", "GiB"},
		{"pcie.migrate_ns", "ns"}, {"pcie.migrate_allocs", "count"},
		{"hostmem.cpu_frac", "ratio"}, {"hostmem.alloc_ns", "ns"}, {"hostmem.alloc_allocs", "count"},

		{"gpu.cpu_frac", "ratio"}, {"gpu.instructions", "count"}, {"gpu.l1_load_miss_rate", "ratio"},
		{"gpu.launch_ns", "ns"}, {"gpu.launch_allocs", "count"},

		{"cuda.cpu_frac", "ratio"}, {"workloads.cpu_frac", "ratio"}, {"seedrng.cpu_frac", "ratio"},
	}
	for _, s := range probeSetups {
		m = append(m, struct{ name, unit string }{"cuda.run_us." + s, "us"},
			struct{ name, unit string }{"cuda.run_allocs." + s, "count"})
	}
	m = append(m, []struct{ name, unit string }{
		{"core.cpu_frac", "ratio"}, {"core.cells_simulated", "count"},
		{"core.cache_hits", "count"}, {"core.cache_misses", "count"},
		{"core.cell_busy_s", "s"}, {"core.worker_idle_frac", "ratio"},
		{"core.render_s", "s"}, {"core.alloc_mb", "MiB"}, {"core.allocs", "count"},
	}...)
	for _, f := range serve.AllFigures {
		m = append(m, struct{ name, unit string }{"core.figure_s." + f, "s"})
	}
	m = append(m, []struct{ name, unit string }{
		{"serve.cpu_frac", "ratio"}, {"serve.parse_us", "us"}, {"serve.figure_us.warm", "us"},
		{"serve.encode_us", "us"}, {"serve.handler_ms.warm", "ms"}, {"serve.handler_ms.cold", "ms"},
		{"serve.client_wait_ms", "ms"}, {"serve.gen_late_ms", "ms"}, {"serve.rejected", "count"},
		{"serve.response_kib", "KiB"}, {"serve.cache_hit_frac", "ratio"},
		{"serve.warm_p99_ms", "ms"}, {"serve.cold_tail_ms", "ms"}, {"serve.max_rps", "1/s"},

		{"store.cpu_frac", "ratio"}, {"store.get_count", "count"}, {"store.get_us", "us"},
		{"store.put_count", "count"}, {"store.put_us", "us"}, {"store.written_mib", "MiB"},
		{"store.hit_frac", "ratio"},

		{"runtime.gc_cpu_frac", "ratio"},
		{"host.slowdown", "ratio"},
		{"trace.overhead_frac", "ratio"},
	}...)
	for _, l := range selfLayers {
		m = append(m, struct{ name, unit string }{"trace.self_ms." + l, "ms"})
	}
	return m
}()

// selfLayers are the span layers whose self time per measured operation
// the traced run reports.
var selfLayers = []string{layerPass, layerFigure, layerRender, layerStore, layerRequest, layerHandler}

// zeroLayers reports every per-layer metric as 0 until the workload
// overwrites the ones it exercises.
func (b *bench) zeroLayers() {
	for _, m := range perLayer {
		b.set(m.name, m.unit, 0)
	}
}

// phase is the traced half of a --trace 1 run: the span recorder with
// its workload root span, the CPU profile, and what the passes record.
type phase struct {
	tr       *tracer
	root     openSpan
	stopProf func() (map[string]float64, error)

	times    *passTimes
	captured []store.CellDoc
}

func (b *bench) startPhase() (*phase, error) {
	freshGC()
	stop, err := startCPUProfile(b)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	return &phase{tr: tr, root: tr.begin(layerWorkload, b.workload, 0), stopProf: stop, times: newPassTimes()}, nil
}

// tracer and rootID are nil-safe, so untraced phases pass a nil *phase.
func (p *phase) tracer() *tracer {
	if p == nil {
		return nil
	}
	return p.tr
}

func (p *phase) rootID() int64 {
	if p == nil {
		return 0
	}
	return p.root.id
}

// finish closes the root span, stops the profiler and returns the flat
// CPU shares by package.
func (p *phase) finish() (map[string]float64, error) {
	p.root.end()
	return p.stopProf()
}

// setPassTimes reports the median per-figure and render times.
func (b *bench) setPassTimes(pt *passTimes) {
	for fig, xs := range pt.figure {
		b.set("core.figure_s."+fig, "s", median(xs))
	}
	b.set("core.render_s", "s", median(pt.render))
}

// finishTraced reports the CPU shares of a traced phase and its span
// self times per measured operation (request, or pass where there are
// no requests), writes its Chrome trace, and runs the layer probes.
func (b *bench) finishTraced(p *phase, shares map[string]float64) error {
	b.setCPUShares(shares)
	b.set("host.slowdown", "ratio", median(b.slowdowns))
	self := p.tr.selfTimes()
	ops := p.tr.spanCount(layerRequest)
	if ops == 0 {
		ops = p.tr.spanCount(layerPass)
	}
	for _, l := range selfLayers {
		b.set("trace.self_ms."+l, "ms", 1000*self[l]/float64(max(ops, 1)))
	}
	if err := p.tr.writeChrome(filepath.Join(b.work, b.workload+".trace.json")); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return b.runProbes()
}

// startCPUProfile profiles the traced phase into the work directory and
// returns a function that stops it and aggregates the profile by
// package.
func startCPUProfile(b *bench) (func() (map[string]float64, error), error) {
	path := filepath.Join(b.work, b.workload+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return packageShares(data)
	}, nil
}
