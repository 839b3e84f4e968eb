package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"uvmasim/internal/cuda"
	"uvmasim/internal/store"
	"uvmasim/internal/workloads"
)

// This file implements cost-aware cell scheduling. The executor drains a
// study's cells in whatever order the dispatch hands them out; with
// submission order, a straggler (a Mega cell, an oversubscribed sweep
// point) dispatched last stretches the makespan by nearly its whole
// cost. Every study therefore asks lptOrder for a longest-processing-
// time-first dispatch order: cells are claimed most-expensive-first, so
// the stragglers start immediately and the cheap cells pack the tail.
//
// Costs come from a static model (staticCellSeconds) that estimates a
// cell's wall time from what dominates the simulation — per-chunk
// fault/migration work for managed setups, per-byte copy work for
// explicit ones, eviction churn above capacity for oversubscribed
// footprints. It is a pure function of the cell identity, which is what
// lets shard artifacts embed deterministic per-shard cost estimates.
// Ordering affects only the makespan — results land in index slots and
// the singleflight cache counts per-key — so the model is free to be
// approximate.

// Static cost-model constants, calibrated against measured vector_seq
// iteration times on the development machine (managed Mega ~660µs/iter
// at 16384 chunks, managed Large ~7µs at 256, explicit setups ~1-2µs
// at every size). Only ranks and rough proportions matter: LPT needs
// an ordering, and the shard estimates need to track real cost, not
// predict it.
const (
	// costIterBase is the fixed per-iteration cost: context reset, host
	// randomization, kernel launch bookkeeping.
	costIterBase = 1e-6
	// costPerChunk is the per-2MiB-chunk cost of the managed fault /
	// migration path per data pass.
	costPerChunk = 0.03e-6
	// costPerCopiedGiB is the explicit-memcpy path's cost per GiB moved
	// (whole pipelined copies simulate in a handful of events, so the
	// explicit path is nearly flat in the footprint).
	costPerCopiedGiB = 0.5e-6
	// costEvictFactor multiplies chunk traffic once a footprint exceeds
	// managed capacity: every pass faults, migrates and writes back.
	costEvictFactor = 3.0
)

// staticCellSeconds estimates one cell's simulation wall seconds from
// its identity alone. kind is the cell-cache kind: a workload name, a
// "sweep:<fig>:<param>" id, an "oversub:<ratio>:<passes>" point, or a
// "multigpu:<workload>:<topology>:<gpus>:<policy>:<jobs>:<schedule>"
// grid point.
func staticCellSeconds(cfg cuda.SystemConfig, kind string, setup cuda.Setup, size workloads.Size, iters int) float64 {
	if iters < 1 {
		iters = 1
	}
	chunkBytes := cfg.UVM.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = 2 << 20
	}
	if wname, gpus, jobs, ok := parseMultiGPUKind(kind); ok {
		// A multigpu cell measures its workload once (one ordinary cell
		// at the runner's iteration count) and replays the schedule as a
		// handful of DES events per job and GPU.
		return staticCellSeconds(cfg, wname, setup, size, iters) +
			float64(jobs*gpus)*1e-7
	}
	if ratio, passes, ok := parseOversubKind(kind); ok {
		capacity := float64(cfg.GPU.HBMCapacity) * cfg.ManagedCapacityFraction
		chunks := ratio * capacity / float64(chunkBytes)
		perPass := chunks * costPerChunk
		if ratio > 1 {
			perPass *= costEvictFactor
		}
		// An oversub cell is a single run regardless of the runner's
		// iteration count (see oversubCell).
		return costIterBase + float64(passes)*perPass
	}
	footprint := float64(size.Footprint())
	var perIter float64
	switch {
	case setup.ZeroCopy():
		// Zero-copy never faults or migrates: the simulation prices each
		// access over the link in one kernel event, so like the explicit
		// path it is nearly flat in the footprint.
		perIter = costIterBase + footprint/float64(1<<30)*costPerCopiedGiB
	case setup.SMCopy():
		// SM staging walks chunks like the fault path but without the
		// per-fault replay machinery, so per-chunk work is much cheaper.
		perIter = costIterBase + footprint/float64(chunkBytes)*costPerChunk*0.3
	case setup.Managed():
		perIter = costIterBase + footprint/float64(chunkBytes)*costPerChunk
	default:
		perIter = costIterBase + footprint/float64(1<<30)*costPerCopiedGiB
	}
	return float64(iters) * perIter
}

// parseMultiGPUKind decodes the
// "multigpu:<workload>:<topology>:<gpus>:<policy>:<jobs>:<schedule>"
// cell kind into the fields the cost model prices.
func parseMultiGPUKind(kind string) (workload string, gpus, jobs int, ok bool) {
	rest, found := strings.CutPrefix(kind, "multigpu:")
	if !found {
		return "", 0, 0, false
	}
	parts := strings.Split(rest, ":")
	if len(parts) != 6 {
		return "", 0, 0, false
	}
	gpus, err := strconv.Atoi(parts[2])
	if err != nil {
		return "", 0, 0, false
	}
	jobs, err = strconv.Atoi(parts[4])
	if err != nil {
		return "", 0, 0, false
	}
	return parts[0], gpus, jobs, true
}

// parseOversubKind decodes the "oversub:<ratio>:<passes>" cell kind.
func parseOversubKind(kind string) (ratio float64, passes int, ok bool) {
	rest, found := strings.CutPrefix(kind, "oversub:")
	if !found {
		return 0, 0, false
	}
	rs, ps, found := strings.Cut(rest, ":")
	if !found {
		return 0, 0, false
	}
	ratio, err := strconv.ParseFloat(rs, 64)
	if err != nil {
		return 0, 0, false
	}
	passes, err = strconv.Atoi(ps)
	if err != nil {
		return 0, 0, false
	}
	return ratio, passes, true
}

// ErrUnknownCell reports a captured cell document whose setup or size
// name is not resolvable in this process — typically an artifact written
// by a build with extra registered setups, or a future schema.
var ErrUnknownCell = errors.New("core: unknown cell identity")

// EstimateCellSeconds is the static cost-model estimate for one
// captured cell document, used by shard producers to embed a
// deterministic per-shard cost estimate in the artifact. A setup or
// size name that does not resolve in this process's registry returns a
// generic standard/Large estimate alongside an error wrapping
// ErrUnknownCell: the estimate stays usable — estimates steer
// scheduling and reporting, never results — but the caller decides
// whether an unknown identity is worth surfacing instead of the old
// silent fallback.
func EstimateCellSeconds(cfg cuda.SystemConfig, doc store.CellDoc) (float64, error) {
	var unknown error
	setup, err := cuda.ParseSetup(doc.Key.Setup)
	if err != nil {
		setup = cuda.Standard
		unknown = fmt.Errorf("%w: setup %q", ErrUnknownCell, doc.Key.Setup)
	}
	size, err := workloads.ParseSize(doc.Key.Size)
	if err != nil {
		size = workloads.Large
		if unknown == nil {
			unknown = fmt.Errorf("%w: size %q", ErrUnknownCell, doc.Key.Size)
		}
	}
	return staticCellSeconds(cfg, doc.Key.Kind, setup, size, doc.Key.Iters), unknown
}

// cellCost returns the static scheduling cost of one cell at the
// runner's iteration count.
func (r *Runner) cellCost(kind string, setup cuda.Setup, size workloads.Size) float64 {
	return staticCellSeconds(r.Config, kind, setup, size, r.iters())
}

// lptOrder builds a longest-processing-time-first dispatch order over n
// cells for forEachOrdered: indices sorted by descending cost, original
// order on ties (the stable sort keeps the schedule deterministic for a
// given cost vector). Returns nil — identity order — when ordering
// cannot help: one or two cells, or a serial executor.
func (r *Runner) lptOrder(n int, cost func(i int) float64) []int {
	if n <= 2 || r.parallelism() <= 1 {
		return nil
	}
	order := make([]int, n)
	costs := make([]float64, n)
	for i := range order {
		order[i] = i
		costs[i] = cost(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}
