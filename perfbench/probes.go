package main

import (
	"fmt"
	"runtime"
	"time"

	"uvmasim/internal/counters"
	"uvmasim/internal/cuda"
	"uvmasim/internal/gpu"
	"uvmasim/internal/hostmem"
	"uvmasim/internal/kernels"
	"uvmasim/internal/pcie"
	"uvmasim/internal/sim"
	"uvmasim/internal/uvm"
	"uvmasim/internal/workloads"
)

// The probes call each simulator layer's public functions directly, on
// inputs sized like the suite's heaviest cells: the managed micro
// workloads at the mega class (32 GiB), which core.EstimateCellSeconds
// ranks highest of the `all` grid. gemm stands for them in the cuda
// probes; its kernel is the gpu probe's launch.
const (
	probeWorkload = "gemm"
	probeSize     = workloads.Mega
	probeRounds   = 5
)

// probeSetups are the paper's five setups, by registered name.
var probeSetups = []string{"standard", "async", "uvm", "uvm_prefetch", "uvm_prefetch_async"}

// probe runs prepare then the timed body probeRounds times and returns
// the median ns and heap allocations per operation. prepare builds the
// layer's state untimed and returns the body, which reports how many
// operations it performed.
func probe(prepare func() (func() (int, error), error)) (nsPerOp, allocsPerOp float64, err error) {
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < probeRounds; i++ {
		body, err := prepare()
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ops, err := body()
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		ns = append(ns, float64(dt.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	return median(ns), median(allocs), nil
}

// runProbes reports ns/op (or µs/op) and allocs/op for each layer probe.
func (b *bench) runProbes() error {
	cfg := cuda.DefaultSystemConfig()
	footprint := probeSize.Footprint()
	set := func(name, unit string, scale float64, prepare func() (func() (int, error), error)) error {
		ns, allocs, err := probe(prepare)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		b.set(name+"_"+unit, unit, ns/scale)
		b.set(name+"_allocs", "count", allocs)
		return nil
	}
	setRun := func(setup cuda.Setup, w workloads.Workload) error {
		ns, allocs, err := probe(func() (func() (int, error), error) {
			return func() (int, error) {
				const n = 10
				for i := 0; i < n; i++ {
					ctx := cuda.NewContext(cfg, setup, int64(i+1))
					if err := w.Run(ctx, probeSize); err != nil {
						return 0, err
					}
				}
				return n, nil
			}, nil
		})
		if err != nil {
			return fmt.Errorf("probe cuda.run.%s: %w", setup, err)
		}
		b.set("cuda.run_us."+setup.String(), "us", ns/1e3)
		b.set("cuda.run_allocs."+setup.String(), "count", allocs)
		return nil
	}

	probes := []error{
		set("sim.event", "ns", 1, func() (func() (int, error), error) {
			eng := sim.New()
			fn := func() {}
			return func() (int, error) {
				const loops, events = 2000, 64
				for i := 0; i < loops; i++ {
					for j := 0; j < events; j++ {
						eng.After(float64(j%7), fn)
					}
					eng.Run()
					eng.Reset()
				}
				return loops * events, nil
			}, nil
		}),
		set("sim.link_reserve", "ns", 1, func() (func() (int, error), error) {
			eng := sim.New()
			link := sim.NewLink(eng, "probe", cfg.PCIe.BytesPerNs())
			return func() (int, error) {
				const loops, per = 100, 1000
				for i := 0; i < loops; i++ {
					for j := 0; j < per; j++ {
						link.ReserveAt(float64(j)*1e5, float64(cfg.UVM.ChunkBytes), 0, 0.8, nil)
					}
					link.Reset()
				}
				return loops * per, nil
			}, nil
		}),
		set("pcie.migrate", "ns", 1, func() (func() (int, error), error) {
			eng := sim.New()
			bus := pcie.New(eng, cfg.PCIe)
			return func() (int, error) {
				const loops, per = 100, 1000
				for i := 0; i < loops; i++ {
					t := 0.0
					for j := 0; j < per; j++ {
						t = bus.MigrateOnDemand(t, cfg.UVM.ChunkBytes, 1)
					}
					bus.Reset()
				}
				return loops * per, nil
			}, nil
		}),
		set("hostmem.alloc", "ns", 1, func() (func() (int, error), error) {
			mem := hostmem.New(cfg.Host)
			return func() (int, error) {
				const n = 100000
				for i := 0; i < n; i++ {
					id, _, err := mem.Alloc(footprint / 3)
					if err != nil {
						return 0, err
					}
					if err := mem.Free(id); err != nil {
						return 0, err
					}
				}
				return n, nil
			}, nil
		}),
		set("gpu.launch", "ns", 1, func() (func() (int, error), error) {
			m := gpu.NewModel(cfg.GPU)
			dim := probeSize.Dim2D(3)
			spec := kernels.MatMul(probeWorkload, dim, dim, dim, 128)
			exec := gpu.ExecConfig{Async: true, Managed: true, DriverPrefetch: true}
			return func() (int, error) {
				const n = 20000
				for i := 0; i < n; i++ {
					m.Launch(spec, exec)
				}
				return n, nil
			}, nil
		}),
		set("uvm.demand_evict", "ns", 1, func() (func() (int, error), error) {
			// Device memory of a quarter of the region, so two sweeps evict
			// on nearly every fault.
			eng := sim.New()
			var stats counters.UVMStats
			m := uvm.NewManager(cfg.UVM, pcie.New(eng, cfg.PCIe), footprint/4, &stats)
			r, err := m.Register(footprint)
			if err != nil {
				return nil, err
			}
			return func() (int, error) {
				now := 0.0
				for pass := 0; pass < 2; pass++ {
					for c := 0; c < r.NumChunks(); c++ {
						now = m.DemandChunk(r, c, now, 1, true)
					}
				}
				if stats.Evictions == 0 {
					return 0, fmt.Errorf("churn did not evict")
				}
				return 2 * r.NumChunks(), nil
			}, nil
		}),
	}
	// Unregister of a fully resident mega region, on one manager whose
	// recycled region each round reuses.
	eng := sim.New()
	var stats counters.UVMStats
	mgr := uvm.NewManager(cfg.UVM, pcie.New(eng, cfg.PCIe), 2*footprint, &stats)
	probes = append(probes, set("uvm.unregister", "us", 1e3, func() (func() (int, error), error) {
		r, err := mgr.Register(footprint)
		if err != nil {
			return nil, err
		}
		mgr.DemandRange(r, 0, r.NumChunks(), 0, 0)
		if r.ResidentChunks() != r.NumChunks() {
			return nil, fmt.Errorf("region not fully resident: %d of %d chunks", r.ResidentChunks(), r.NumChunks())
		}
		return func() (int, error) { return 1, mgr.Unregister(r) }, nil
	}))

	w, err := workloads.ByName(probeWorkload)
	if err != nil {
		return err
	}
	for _, name := range probeSetups {
		s, err := cuda.ParseSetup(name)
		if err != nil {
			return err
		}
		probes = append(probes, setRun(s, w))
	}
	for _, err := range probes {
		if err != nil {
			return err
		}
	}
	return nil
}
