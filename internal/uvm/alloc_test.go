package uvm

import (
	"runtime/debug"
	"testing"

	"uvmasim/internal/counters"
)

// TestManagerAllocCeilings pins the manager's warm lifecycle at zero
// allocations: once a manager has warmed its arenas (node arena, region
// free list, dirty queues, the ring build's sort scratch, the bus
// timelines), a Reset followed by an oversubscribed script — a lazy
// fill, the first-eviction ring build, eviction churn with dirty
// writebacks, and Unregister of resident regions — must not allocate.
// The pin is exact, so it holds only without -race.
func TestManagerAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const chunk = 2 << 20
	m, bus, stats := newTestManager(64 * chunk)
	run := func() {
		m.Reset()
		bus.Reset()
		*stats = counters.UVMStats{}
		a, err := m.Register(48*chunk - 777)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Register(40 * chunk)
		if err != nil {
			t.Fatal(err)
		}
		now := m.DemandRange(a, 0, a.NumChunks(), 0, 0.001)
		m.MarkDirty(a, 0, a.Size/2)
		now = m.DemandRange(b, 0, b.NumChunks(), now, 0.001) // builds the ring
		now = m.PrefetchRegion(a, now)
		m.MarkDeviceWritten(b, now)
		m.MarkDirty(b, 0, b.Size)
		now = m.WritebackPartial(b, now, 8*chunk)
		m.DemandChunk(a, 0, now, 1, false)
		if stats.Evictions == 0 || !m.ringed {
			t.Fatalf("script did not evict (evictions %v, ring built %v)", stats.Evictions, m.ringed)
		}
		if err := m.Unregister(a); err != nil {
			t.Fatal(err)
		}
		if err := m.Unregister(b); err != nil {
			t.Fatal(err)
		}
	}
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Errorf("warm manager lifecycle allocates %.1f per run, want 0", got)
	}
}
