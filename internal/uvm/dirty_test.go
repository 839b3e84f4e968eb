package uvm

import (
	"math/rand"
	"testing"
)

// dirtyModel is the naive per-chunk reference for a region's dirty
// bookkeeping: one dirty bit and one queue-membership bit per chunk,
// updated chunk by chunk. The queue it implies is the ascending list of
// member indices.
type dirtyModel struct {
	dirty, queued []bool
	chunkBytes    []int64
}

func newDirtyModel(m *Manager, r *Region) *dirtyModel {
	d := &dirtyModel{
		dirty:      make([]bool, r.NumChunks()),
		queued:     make([]bool, r.NumChunks()),
		chunkBytes: make([]int64, r.NumChunks()),
	}
	for i := range d.chunkBytes {
		d.chunkBytes[i] = m.chunkSize(r, i)
	}
	return d
}

func (d *dirtyModel) mark(first, last int) {
	for i := first; i <= last; i++ {
		d.dirty[i] = true
		d.queued[i] = true
	}
}

// writeback mirrors WritebackPartial's walk: ascending over queued
// chunks, dropping tombstones, writing back dirty chunks until maxBytes
// have moved.
func (d *dirtyModel) writeback(maxBytes int64) {
	var moved int64
	for i := range d.queued {
		if !d.queued[i] {
			continue
		}
		if !d.dirty[i] {
			d.queued[i] = false
			continue
		}
		if moved >= maxBytes {
			return
		}
		d.dirty[i] = false
		d.queued[i] = false
		moved += d.chunkBytes[i]
	}
}

// check compares the region's dirty bits, dirty count and queue against
// the model.
func (d *dirtyModel) check(t *testing.T, r *Region, step string) {
	t.Helper()
	count := 0
	var q []int32
	for i := range d.dirty {
		if r.dirty[i] != d.dirty[i] {
			t.Fatalf("%s: chunk %d dirty = %v, model %v", step, i, r.dirty[i], d.dirty[i])
		}
		if r.queued[i] != d.queued[i] {
			t.Fatalf("%s: chunk %d queued = %v, model %v", step, i, r.queued[i], d.queued[i])
		}
		if d.dirty[i] {
			count++
		}
		if d.queued[i] {
			q = append(q, int32(i))
		}
	}
	if r.dirtyCount != count {
		t.Fatalf("%s: dirtyCount = %d, model %d", step, r.dirtyCount, count)
	}
	if len(r.dirtyQ) != len(q) {
		t.Fatalf("%s: dirtyQ = %v, model %v", step, r.dirtyQ, q)
	}
	for k := range q {
		if r.dirtyQ[k] != q[k] {
			t.Fatalf("%s: dirtyQ = %v, model %v", step, r.dirtyQ, q)
		}
	}
}

// dirtyRig is a manager with room for capChunks 2 MiB chunks, an
// n-chunk region under test, and a one-chunk region whose demand evicts
// the LRU chunk. Evictions reach the model through the onEvict hook.
type dirtyRig struct {
	m      *Manager
	r, pin *Region
	model  *dirtyModel
	now    float64
}

func newDirtyRig(t *testing.T, n, capChunks int) *dirtyRig {
	const chunk = 2 << 20
	m, _, _ := newTestManager(int64(capChunks) * chunk)
	r, err := m.Register(int64(n)*chunk - 4321) // short tail chunk
	if err != nil {
		t.Fatal(err)
	}
	pin, err := m.Register(chunk)
	if err != nil {
		t.Fatal(err)
	}
	g := &dirtyRig{m: m, r: r, pin: pin, model: newDirtyModel(m, r)}
	m.onEvict = func(v *Region, idx int, _ float64) {
		if v == r {
			g.model.dirty[idx] = false // eviction leaves a tombstone
		}
	}
	g.now = m.DemandRange(r, 0, n, 0, 0.001)
	return g
}

func (g *dirtyRig) markChunks(first, last int) {
	off := int64(first) * g.m.cfg.ChunkBytes
	end := int64(last+1) * g.m.cfg.ChunkBytes
	if end > g.r.Size {
		end = g.r.Size
	}
	g.m.MarkDirty(g.r, off, end-off)
	g.model.mark(first, last)
}

func (g *dirtyRig) markAll() {
	g.m.MarkDirty(g.r, 0, g.r.Size)
	g.model.mark(0, g.r.NumChunks()-1)
}

func (g *dirtyRig) writeback(maxBytes int64) {
	g.now = g.m.WritebackPartial(g.r, g.now, maxBytes)
	g.model.writeback(maxBytes)
}

// evictOne demands the pin region's chunk (evicting the region's LRU
// chunk on a full device), then drops it again.
func (g *dirtyRig) evictOne(t *testing.T) {
	g.now = g.m.DemandChunk(g.pin, 0, g.now, 1, false)
	if err := g.m.Unregister(g.pin); err != nil {
		t.Fatal(err)
	}
	pin, err := g.m.Register(g.m.cfg.ChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	g.pin = pin
}

// TestRedirtyMatchesModel pins markDirtyRange, fast path included,
// against the per-chunk model in the states the fast path must tell
// apart: a fully dirty region, a full-length queue holding a tombstone,
// and a queue drained in part by a partial writeback.
func TestRedirtyMatchesModel(t *testing.T) {
	const n = 12
	t.Run("fully-dirty-remark-is-noop", func(t *testing.T) {
		g := newDirtyRig(t, n, n+1)
		g.markAll()
		g.model.check(t, g.r, "first whole mark")
		q := g.r.dirtyQ
		g.markAll()
		g.markChunks(3, 7)
		g.markChunks(n-1, n-1)
		g.model.check(t, g.r, "re-marks")
		if &g.r.dirtyQ[0] != &q[0] || len(g.r.dirtyQ) != len(q) {
			t.Fatal("re-marking a fully dirty region rewrote its queue")
		}
	})
	t.Run("tombstone-redirtied-by-whole-mark", func(t *testing.T) {
		g := newDirtyRig(t, n, n) // full device: the pin's demand evicts
		g.markAll()
		g.evictOne(t)
		if g.r.dirtyCount != n-1 || len(g.r.dirtyQ) != n {
			t.Fatalf("after one eviction: dirtyCount %d, queue length %d; want %d, %d",
				g.r.dirtyCount, len(g.r.dirtyQ), n-1, n)
		}
		g.model.check(t, g.r, "after eviction")
		g.markAll()
		g.model.check(t, g.r, "whole mark over a tombstone")
		if g.r.dirtyCount != n {
			t.Fatalf("tombstoned chunk not re-dirtied: dirtyCount %d, want %d", g.r.dirtyCount, n)
		}
	})
	t.Run("partial-marks-after-partial-writeback", func(t *testing.T) {
		g := newDirtyRig(t, n, n+1)
		g.markAll()
		g.writeback(3 * g.m.cfg.ChunkBytes) // chunks 0..2 leave the queue
		g.model.check(t, g.r, "partial writeback")
		g.markChunks(1, 1)
		g.model.check(t, g.r, "mark inside the drained prefix")
		g.markChunks(2, 6)
		g.model.check(t, g.r, "mark straddling the drained prefix")
		g.markChunks(0, n-1)
		g.model.check(t, g.r, "whole mark")
		g.writeback(g.r.Size)
		g.model.check(t, g.r, "full writeback")
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 40; trial++ {
			g := newDirtyRig(t, n, n)
			for step := 0; step < 60; step++ {
				switch rng.Intn(5) {
				case 0:
					g.markAll()
				case 1, 2:
					first := rng.Intn(n)
					g.markChunks(first, first+rng.Intn(n-first))
				case 3:
					g.writeback(int64(rng.Intn(n+1)) * g.m.cfg.ChunkBytes)
				case 4:
					g.evictOne(t)
					// Bring the region back so the next eviction has a
					// victim of its own to choose.
					g.now = g.m.DemandRange(g.r, 0, n, g.now, 0.001)
				}
				g.model.check(t, g.r, "random step")
			}
		}
	})
}
