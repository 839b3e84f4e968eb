package uvm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uvmasim/internal/counters"
	"uvmasim/internal/pcie"
	"uvmasim/internal/sim"
	"uvmasim/internal/trace"
)

// The differential harness drives the O(1) LRU-ring evictor through
// random workloads — demand faults, prefetch streams, device writes,
// dirty marks, partial writebacks, unregister/re-register, reset — and
// checks every victim it picks, at the moment of eviction, against the
// pre-optimization full scan (victimScan). Victim choice is the only
// thing the two evictors could disagree on, so agreement at every
// eviction makes the whole simulation — availability times, stats,
// per-chunk state, trace events — identical to the scan era.

// victimScan is the reference evictor: the pre-optimization full scan
// over every chunk of every region for the smallest last-use stamp. It
// is O(chunks) per call where the LRU ring is O(1). Map iteration order
// over m.regions is not deterministic, but the strict `<` comparison on
// unique stamps makes the selected victim independent of it.
func (m *Manager) victimScan() (*Region, int) {
	var victim *Region
	vIdx := -1
	var oldest int64 = math.MaxInt64
	for _, reg := range m.regions {
		for i := range reg.arrival {
			if reg.Resident(i) && reg.lastUse[i] < oldest {
				oldest = reg.lastUse[i]
				victim, vIdx = reg, i
			}
		}
	}
	return victim, vIdx
}

type evictRec struct {
	region int // ordinal in the harness's region table
	idx    int
	at     float64
}

// diffRig is one manager under test plus its recording hooks.
type diffRig struct {
	m       *Manager
	bus     *pcie.Bus
	tr      *trace.Tracer
	regions []*Region
	ords    map[*Region]int
	evicts  []evictRec
}

// newDiffRig builds a rig whose eviction observer checks every victim
// against the reference scan before recording it.
func newDiffRig(t *testing.T, capacity int64) *diffRig {
	eng := sim.New()
	tr := trace.New()
	eng.SetTracer(tr)
	bus := pcie.New(eng, pcie.DefaultConfig())
	rig := &diffRig{
		m:    NewManager(DefaultConfig(), bus, capacity, &counters.UVMStats{}),
		bus:  bus,
		tr:   tr,
		ords: make(map[*Region]int),
	}
	rig.m.onEvict = func(r *Region, idx int, ready float64) {
		if sr, si := rig.m.victimScan(); sr != r || si != idx {
			t.Fatalf("eviction %d: ring picked r%d[%d] (stamp %d), scan picks r%d[%d]",
				len(rig.evicts), rig.ords[r], idx, r.lastUse[idx], rig.ords[sr], si)
		}
		rig.evicts = append(rig.evicts, evictRec{rig.ords[r], idx, ready})
	}
	return rig
}

func (rig *diffRig) register(t *testing.T, size int64) {
	t.Helper()
	r, err := rig.m.Register(size)
	if err != nil {
		t.Fatal(err)
	}
	rig.ords[r] = len(rig.regions)
	rig.regions = append(rig.regions, r)
}

// step applies one scripted operation and returns its time result (NaN
// for untimed operations) plus a label for failure messages.
func (rig *diffRig) step(rng *rand.Rand, now float64) (float64, string) {
	r := rig.regions[rng.Intn(len(rig.regions))]
	switch op := rng.Intn(7); op {
	case 0:
		idx := rng.Intn(r.NumChunks())
		return rig.m.DemandChunk(r, idx, now, 0.5+0.5*rng.Float64(), rng.Intn(2) == 0),
			fmt.Sprintf("demand r%d[%d]", rig.ords[r], idx)
	case 6:
		n := r.NumChunks()
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		cpb := rng.Float64() * 0.01
		return rig.m.DemandRange(r, lo, hi, now, cpb),
			fmt.Sprintf("range r%d[%d:%d]", rig.ords[r], lo, hi)
	case 1:
		return rig.m.PrefetchRegion(r, now), fmt.Sprintf("prefetch r%d", rig.ords[r])
	case 2:
		rig.m.MarkDeviceWritten(r, now)
		return math.NaN(), fmt.Sprintf("write r%d", rig.ords[r])
	case 3:
		off := int64(rng.Intn(int(r.Size)))
		n := int64(1 + rng.Intn(4<<20))
		rig.m.MarkDirty(r, off, n)
		return math.NaN(), fmt.Sprintf("dirty r%d %d+%d", rig.ords[r], off, n)
	case 4:
		max := int64(1+rng.Intn(8)) << 20
		return rig.m.WritebackPartial(r, now, max), fmt.Sprintf("writeback r%d max %d", rig.ords[r], max)
	default:
		return rig.m.WritebackDirty(r, now), fmt.Sprintf("flush r%d", rig.ords[r])
	}
}

// TestDifferentialEviction is the evictor's property test: for random
// capacities, region mixes (including regions larger than the whole
// device budget, the self-evicting oversubscription regime) and
// operation scripts, every victim the LRU ring picks must be the one the
// reference scan picks.
func TestDifferentialEviction(t *testing.T) {
	evictions := 0
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := int64(3+rng.Intn(10)) << 20
			nRegions := 2 + rng.Intn(3)
			sizes := make([]int64, nRegions)
			for i := range sizes {
				// Up to ~2x capacity so single regions oversubscribe.
				sizes[i] = int64(1+rng.Intn(int(2*capacity>>20))) << 20
				if rng.Intn(3) == 0 {
					sizes[i] -= int64(rng.Intn(1 << 20)) // short tail chunk
				}
			}

			rig := newDiffRig(t, capacity)
			for _, s := range sizes {
				rig.register(t, s)
			}
			ops := rand.New(rand.NewSource(seed + 1000))
			now := 0.0
			for step := 0; step < 300; step++ {
				if got, _ := rig.step(ops, now); !math.IsNaN(got) && got > now {
					now = got
				}
				// Occasionally recycle a region mid-run.
				if step%97 == 96 {
					recycle(t, rig, ops.Intn(len(rig.regions)))
				}
				// And occasionally reset the whole manager (the pooled
				// context lifecycle), re-registering every region from
				// the recycled arenas.
				if step%131 == 130 {
					resetRig(t, rig, sizes)
				}
			}
			evictions += len(rig.evicts)

			// Everything ends clean.
			for i := range rig.regions {
				recycle(t, rig, i)
			}
			if rig.m.ResidentBytes() != 0 {
				t.Fatalf("resident bytes leaked: %d", rig.m.ResidentBytes())
			}
		})
	}
	if evictions == 0 {
		t.Fatal("no script evicted; the scan oracle was never consulted")
	}
}

// recycle unregisters region i and registers a same-size replacement in
// its table slot.
func recycle(t *testing.T, rig *diffRig, i int) {
	t.Helper()
	old := rig.regions[i]
	if err := rig.m.Unregister(old); err != nil {
		t.Fatal(err)
	}
	delete(rig.ords, old)
	r, err := rig.m.Register(old.Size)
	if err != nil {
		t.Fatal(err)
	}
	rig.regions[i] = r
	rig.ords[r] = i
}

// resetRig resets the rig's manager (exercising the arena recycling
// path) and re-registers the same region sizes in order, so the rig's
// ordinal table keeps describing the same logical regions.
func resetRig(t *testing.T, rig *diffRig, sizes []int64) {
	t.Helper()
	rig.m.Reset()
	rig.regions = rig.regions[:0]
	rig.ords = make(map[*Region]int)
	for _, s := range sizes {
		rig.register(t, s)
	}
}

// compareRigs asserts full observable-state equality between two rigs,
// trace streams included.
func compareRigs(t *testing.T, a, b *diffRig) {
	t.Helper()
	compareRigsState(t, a, b)
	compareTraces(t, a.tr.Events(), b.tr.Events())
}

// compareRigsState asserts equality of everything except the raw trace
// streams (TestResetMatchesFresh compares those over a suffix, since the
// recycled rig's tracer keeps its warm-phase events).
func compareRigsState(t *testing.T, a, b *diffRig) {
	t.Helper()
	if len(a.evicts) != len(b.evicts) {
		t.Fatalf("eviction counts differ: %d (a) vs %d (b)", len(a.evicts), len(b.evicts))
	}
	for i := range a.evicts {
		if a.evicts[i] != b.evicts[i] {
			t.Fatalf("eviction %d differs: %+v (a) vs %+v (b)", i, a.evicts[i], b.evicts[i])
		}
	}
	if *a.m.Stats != *b.m.Stats {
		t.Fatalf("stats differ:\na: %+v\nb: %+v", *a.m.Stats, *b.m.Stats)
	}
	if a.m.ResidentBytes() != b.m.ResidentBytes() {
		t.Fatalf("resident bytes differ: %d vs %d", a.m.ResidentBytes(), b.m.ResidentBytes())
	}
	for i, ra := range a.regions {
		rb := b.regions[i]
		if ra.ResidentChunks() != rb.ResidentChunks() || ra.ResidentBytes() != rb.ResidentBytes() ||
			ra.DirtyChunks() != rb.DirtyChunks() {
			t.Fatalf("region %d summary differs: res %d/%d bytes %d/%d dirty %d/%d", i,
				ra.ResidentChunks(), rb.ResidentChunks(), ra.ResidentBytes(), rb.ResidentBytes(),
				ra.DirtyChunks(), rb.DirtyChunks())
		}
		for c := range ra.arrival {
			if ra.arrival[c] != rb.arrival[c] && !(math.IsInf(ra.arrival[c], 1) && math.IsInf(rb.arrival[c], 1)) {
				t.Fatalf("region %d chunk %d arrival differs: %v vs %v", i, c, ra.arrival[c], rb.arrival[c])
			}
			if ra.dirty[c] != rb.dirty[c] {
				t.Fatalf("region %d chunk %d dirty differs", i, c)
			}
			if ra.lastUse[c] != rb.lastUse[c] {
				t.Fatalf("region %d chunk %d stamp differs: %d vs %d", i, c, ra.lastUse[c], rb.lastUse[c])
			}
		}
	}
}

// compareTraces asserts two trace event streams are identical.
func compareTraces(t *testing.T, evA, evB []trace.Event) {
	t.Helper()
	if len(evA) != len(evB) {
		t.Fatalf("trace lengths differ: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("trace event %d differs:\nA: %+v\nB: %+v", i, evA[i], evB[i])
		}
	}
}

// assertUnlinked fails unless no arena node is linked, the lazy mode's
// invariant: before a manager's first eviction and after Reset.
func assertUnlinked(t *testing.T, m *Manager, when string) {
	t.Helper()
	if m.ringed {
		t.Fatalf("%s: manager is in ring mode", when)
	}
	if s := m.nodes[0]; s.prev != 0 || s.next != 0 {
		t.Fatalf("%s: ring sentinel links %d/%d, want an empty ring", when, s.prev, s.next)
	}
	for s := 1; s < len(m.nodes); s++ {
		if n := m.nodes[s]; n.prev != -1 || n.next != -1 {
			t.Fatalf("%s: node %d is linked (%d/%d) while the ring is unbuilt", when, s, n.prev, n.next)
		}
	}
}

// assertRingSorted fails unless the ring is built and holds exactly the
// resident chunks of the live regions, in strictly ascending stamp
// order, with consistent back links.
func assertRingSorted(t *testing.T, m *Manager, when string) {
	t.Helper()
	if !m.ringed {
		t.Fatalf("%s: ring not built", when)
	}
	last := int64(-1)
	count := 0
	for s := m.nodes[0].next; s != 0; s = m.nodes[s].next {
		n := m.nodes[s]
		if m.nodes[n.next].prev != s {
			t.Fatalf("%s: node %d's successor does not link back", when, s)
		}
		reg := m.regs[n.region]
		if m.regions[reg.id] != reg {
			t.Fatalf("%s: chunk of an unregistered region on the ring", when)
		}
		if !reg.Resident(int(n.idx)) {
			t.Fatalf("%s: non-resident chunk on the ring", when)
		}
		stamp := reg.lastUse[n.idx]
		if stamp <= last {
			t.Fatalf("%s: ring out of stamp order (%d after %d)", when, stamp, last)
		}
		last = stamp
		count++
	}
	total := 0
	for _, r := range m.regions {
		total += r.ResidentChunks()
	}
	if count != total {
		t.Fatalf("%s: ring has %d nodes, regions count %d resident", when, count, total)
	}
}

// TestLRUMatchesStampOrder pins the structural invariants behind the
// O(1) victim choice and the lazy ring: before a manager's first
// eviction no arena node is linked; from the first eviction on, the ring
// holds exactly the resident chunks, sorted by last-use stamp; and Reset
// unlinks every node again, so the next life starts lazy.
func TestLRUMatchesStampOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int64{5 << 20, 7 << 20, 4<<20 - 777}
	rig := newDiffRig(t, 9<<20)
	for _, s := range sizes {
		rig.register(t, s)
	}
	now := 0.0
	for life := 0; life < 2; life++ {
		if life > 0 {
			resetRig(t, rig, sizes)
			assertUnlinked(t, rig.m, "after Reset")
		}
		born := len(rig.evicts)
		lazySteps, ringSteps := 0, 0
		for step := 0; step < 250; step++ {
			if got, _ := rig.step(rng, now); !math.IsNaN(got) && got > now {
				now = got
			}
			when := fmt.Sprintf("life %d step %d", life, step)
			if len(rig.evicts) == born {
				assertUnlinked(t, rig.m, when)
				lazySteps++
			} else {
				assertRingSorted(t, rig.m, when)
				ringSteps++
			}
		}
		if lazySteps == 0 || ringSteps == 0 {
			t.Fatalf("life %d: %d steps before the first eviction, %d after; want both modes covered",
				life, lazySteps, ringSteps)
		}
	}
}

// drop unregisters region i and removes it from the rig's table.
func (rig *diffRig) drop(t *testing.T, i int) {
	t.Helper()
	if err := rig.m.Unregister(rig.regions[i]); err != nil {
		t.Fatal(err)
	}
	delete(rig.ords, rig.regions[i])
	rig.regions = append(rig.regions[:i], rig.regions[i+1:]...)
	for j, r := range rig.regions {
		rig.ords[r] = j
	}
}

// TestRingBuildOnFirstEviction drives the first-eviction ring build
// through its edge cases. Each script runs on two managers: a lazy one,
// whose trigger operation builds the ring, and an eager one, whose
// (empty) ring is built before the script starts so every hold and
// touch maintains it — the design before the ring became lazy. Every
// victim on both is checked against victimScan, and both must end in
// identical state.
func TestRingBuildOnFirstEviction(t *testing.T) {
	const chunk = 2 << 20
	demandAll := func(rig *diffRig, i int, now float64) float64 {
		r := rig.regions[i]
		return rig.m.DemandRange(r, 0, r.NumChunks(), now, 0.001)
	}
	cases := []struct {
		name     string
		capacity int64
		sizes    []int64
		// pre runs up to the first eviction without evicting; trigger
		// is the operation that must evict first.
		pre, trigger func(t *testing.T, rig *diffRig, now float64) float64
	}{
		{
			// a's chunks take the lowest stamps, then a is unregistered:
			// its stale stamps must not reach the ring.
			name: "unregistered-before-build", capacity: 8 * chunk,
			sizes: []int64{6 * chunk, 4 * chunk, 5*chunk - 777},
			pre: func(t *testing.T, rig *diffRig, now float64) float64 {
				now = demandAll(rig, 0, now)
				rig.drop(t, 0)
				return demandAll(rig, 0, now)
			},
			trigger: func(t *testing.T, rig *diffRig, now float64) float64 {
				return demandAll(rig, 1, now)
			},
		},
		{
			// a is recycled from the free list and only partly demanded
			// again: its untouched chunks keep the previous life's
			// stamps, which are older than every resident chunk's.
			name: "recycled-region", capacity: 6 * chunk,
			sizes: []int64{4 * chunk, 4 * chunk},
			pre: func(t *testing.T, rig *diffRig, now float64) float64 {
				now = demandAll(rig, 0, now)
				now = rig.m.DemandRange(rig.regions[1], 0, 2, now, 0.001)
				old := rig.regions[0]
				recycle(t, rig, 0)
				if rig.regions[0] != old {
					t.Fatal("re-registration did not recycle the freed region")
				}
				now = rig.m.DemandRange(rig.regions[0], 2, 4, now, 0.001)
				return rig.m.DemandRange(rig.regions[1], 2, 4, now, 0.001)
			},
			trigger: func(t *testing.T, rig *diffRig, now float64) float64 {
				return rig.m.DemandChunk(rig.regions[0], 0, now, 1, false)
			},
		},
		{
			// The prefetch stream fits its first chunks, then builds the
			// ring in the middle of the stream and evicts dirty chunks.
			name: "prefetch-mid-stream", capacity: 6 * chunk,
			sizes: []int64{3 * chunk, 5*chunk - 777},
			pre: func(t *testing.T, rig *diffRig, now float64) float64 {
				now = demandAll(rig, 0, now)
				rig.m.MarkDirty(rig.regions[0], 0, 2*chunk)
				return now
			},
			trigger: func(t *testing.T, rig *diffRig, now float64) float64 {
				return rig.m.PrefetchRegion(rig.regions[1], now)
			},
		},
		{
			// The same for a device write that allocates chunk by chunk.
			name: "write-mid-stream", capacity: 6 * chunk,
			sizes: []int64{3 * chunk, 5 * chunk},
			pre: func(t *testing.T, rig *diffRig, now float64) float64 {
				return demandAll(rig, 0, now)
			},
			trigger: func(t *testing.T, rig *diffRig, now float64) float64 {
				rig.m.MarkDeviceWritten(rig.regions[1], now)
				return now
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rigs := [2]*diffRig{newDiffRig(t, c.capacity), newDiffRig(t, c.capacity)}
			rigs[1].m.buildRing()
			for ri, rig := range rigs {
				lazy := ri == 0
				for _, s := range c.sizes {
					rig.register(t, s)
				}
				now := c.pre(t, rig, 0)
				if len(rig.evicts) != 0 {
					t.Fatalf("lazy=%v: the script evicted before its trigger", lazy)
				}
				if lazy {
					assertUnlinked(t, rig.m, "before the trigger")
				}
				now = c.trigger(t, rig, now)
				if len(rig.evicts) == 0 {
					t.Fatalf("lazy=%v: the trigger did not evict", lazy)
				}
				assertRingSorted(t, rig.m, "after the trigger")
				ops := rand.New(rand.NewSource(99))
				for step := 0; step < 100; step++ {
					if got, _ := rig.step(ops, now); !math.IsNaN(got) && got > now {
						now = got
					}
				}
				assertRingSorted(t, rig.m, "after the random tail")
			}
			compareRigs(t, rigs[0], rigs[1])
		})
	}
}

// TestRedundantPrefetchKeepsLRUOrder pins which operations stamp a
// chunk, now that stamps order the ring's build: a PrefetchRegion (or
// MarkDeviceWritten, MarkDirty, writeback) over an already-resident
// region must not refresh its LRU position, in lazy mode and in ring
// mode alike. The goldens hold this behaviour.
func TestRedundantPrefetchKeepsLRUOrder(t *testing.T) {
	const chunk = 2 << 20
	for _, lazy := range []bool{true, false} {
		rig := newDiffRig(t, 4*chunk)
		if !lazy {
			rig.m.buildRing()
		}
		for _, s := range []int64{2 * chunk, 2 * chunk, chunk} {
			rig.register(t, s)
		}
		a, b, c := rig.regions[0], rig.regions[1], rig.regions[2]
		now := rig.m.PrefetchRegion(a, 0)
		now = rig.m.PrefetchRegion(b, now)
		stamps := append([]int64(nil), a.lastUse...)
		clock := rig.m.stamp

		now = rig.m.PrefetchRegion(a, now)
		rig.m.MarkDeviceWritten(a, now)
		rig.m.MarkDirty(a, 0, a.Size)
		now = rig.m.WritebackDirty(a, now)
		if rig.m.stamp != clock || a.lastUse[0] != stamps[0] || a.lastUse[1] != stamps[1] {
			t.Fatalf("lazy=%v: redundant operations restamped a: %v -> %v (clock %d -> %d)",
				lazy, stamps, a.lastUse, clock, rig.m.stamp)
		}

		rig.m.DemandChunk(c, 0, now, 1, false)
		if len(rig.evicts) != 1 || rig.evicts[0].region != 0 || rig.evicts[0].idx != 0 {
			t.Fatalf("lazy=%v: evictions %+v, want a[0] alone", lazy, rig.evicts)
		}
	}
}

// TestDemandRangeMatchesChunkLoop pins the batched demand path to its
// definition: DemandRange(lo, hi) must be observably identical — returned
// compute cursor, stats, per-chunk state, victim order and trace stream —
// to the caller-side loop of DemandChunk(i, cursor, 1, true) it replaced
// on the sequential launch path.
func TestDemandRangeMatchesChunkLoop(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := int64(3+rng.Intn(8)) << 20
			nRegions := 1 + rng.Intn(3)
			sizes := make([]int64, nRegions)
			for i := range sizes {
				sizes[i] = int64(1+rng.Intn(int(2*capacity>>20))) << 20
				if rng.Intn(3) == 0 {
					sizes[i] -= int64(rng.Intn(1 << 20))
				}
			}

			batched := newDiffRig(t, capacity)
			looped := newDiffRig(t, capacity)
			for _, s := range sizes {
				batched.register(t, s)
				looped.register(t, s)
			}

			opsA := rand.New(rand.NewSource(seed + 2000))
			opsB := rand.New(rand.NewSource(seed + 2000))
			now := 0.0
			for step := 0; step < 200; step++ {
				// Mostly mixed ops (run in lockstep on both rigs) to build
				// up partial residency, prefetch races and dirty state;
				// every fourth step is the range-vs-loop probe itself.
				if step%4 != 3 {
					gotA, label := batched.step(opsA, now)
					gotB, _ := looped.step(opsB, now)
					if gotA != gotB && !(math.IsNaN(gotA) && math.IsNaN(gotB)) {
						t.Fatalf("step %d (%s): mixed op diverged: %v vs %v", step, label, gotA, gotB)
					}
					if !math.IsNaN(gotA) && gotA > now {
						now = gotA
					}
					continue
				}
				ri := opsA.Intn(len(batched.regions))
				_ = opsB.Intn(len(looped.regions))
				rA, rB := batched.regions[ri], looped.regions[ri]
				n := rA.NumChunks()
				lo := opsA.Intn(n)
				hi := lo + 1 + opsA.Intn(n-lo)
				cpb := opsA.Float64() * 0.01
				_, _, _ = opsB.Intn(n), opsB.Intn(n-lo), opsB.Float64()

				gotA := batched.m.DemandRange(rA, lo, hi, now, cpb)
				cursor := now
				for i := lo; i < hi; i++ {
					avail := looped.m.DemandChunk(rB, i, cursor, 1, true)
					cursor = avail + float64(looped.m.chunkSize(rB, i))*cpb
				}
				if gotA != cursor {
					t.Fatalf("step %d: DemandRange r%d[%d:%d) returned %v, chunk loop %v",
						step, ri, lo, hi, gotA, cursor)
				}
				if gotA > now {
					now = gotA
				}
			}
			compareRigs(t, batched, looped)
		})
	}
}

// TestResetMatchesFresh pins the recycling oracle behind the context
// pool: a manager that has been driven hard, Reset, and re-registered
// from its free list must replay a script exactly like a freshly
// constructed manager — same availability times, same victim order, same
// stats, same per-chunk state, same trace stream.
func TestResetMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := int64(3+rng.Intn(8)) << 20
			warmSizes := make([]int64, 2+rng.Intn(3))
			for i := range warmSizes {
				warmSizes[i] = int64(1+rng.Intn(int(2*capacity>>20))) << 20
			}
			sizes := make([]int64, 2+rng.Intn(3))
			for i := range sizes {
				sizes[i] = int64(1+rng.Intn(int(2*capacity>>20))) << 20
				if rng.Intn(3) == 0 {
					sizes[i] -= int64(rng.Intn(1 << 20))
				}
			}

			recycled := newDiffRig(t, capacity)
			for _, s := range warmSizes {
				recycled.register(t, s)
			}
			warm := rand.New(rand.NewSource(seed + 500))
			now := 0.0
			for i := 0; i < 150; i++ {
				if got, _ := recycled.step(warm, now); !math.IsNaN(got) && got > now {
					now = got
				}
			}

			// Reset the full simulated machine the way cuda.Context.Reset
			// does: manager arenas, bus timeline, counters. The tracer keeps
			// its warm-phase events; the comparison below starts after them.
			recycled.m.Reset()
			recycled.bus.Reset()
			*recycled.m.Stats = counters.UVMStats{}
			recycled.evicts = recycled.evicts[:0]
			recycled.regions = recycled.regions[:0]
			recycled.ords = make(map[*Region]int)
			warmEvents := len(recycled.tr.Events())

			fresh := newDiffRig(t, capacity)
			for _, s := range sizes {
				recycled.register(t, s)
				fresh.register(t, s)
			}

			opsA := rand.New(rand.NewSource(seed + 900))
			opsB := rand.New(rand.NewSource(seed + 900))
			now = 0.0
			for step := 0; step < 200; step++ {
				gotA, label := recycled.step(opsA, now)
				gotB, _ := fresh.step(opsB, now)
				if gotA != gotB && !(math.IsNaN(gotA) && math.IsNaN(gotB)) {
					t.Fatalf("step %d (%s): recycled %v, fresh %v", step, label, gotA, gotB)
				}
				if !math.IsNaN(gotA) && gotA > now {
					now = gotA
				}
			}

			compareRigsState(t, recycled, fresh)
			compareTraces(t, recycled.tr.Events()[warmEvents:], fresh.tr.Events())
		})
	}
}
