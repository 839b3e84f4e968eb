package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // same time: FIFO
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 10 {
		t.Errorf("final clock = %v, want 10", e.Now())
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var times []float64
	e.After(3, func() {
		times = append(times, e.Now())
		e.After(4, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 3 || times[1] != 7 {
		t.Errorf("times = %v, want [3 7]", times)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.At(5, func() { fired++ })
	e.At(15, func() { fired++ })
	e.RunUntil(10)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 2 || e.Now() != 15 {
		t.Errorf("after Run: fired=%d now=%v", fired, e.Now())
	}
}

// Property: events fire in non-decreasing timestamp order no matter the
// insertion order.
func TestQuickEventOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []float64
		for _, r := range raw {
			at := float64(r)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalSetMergeAndTotal(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(10, 20) // adjacent: merges
	s.Add(30, 40)
	s.Add(35, 50) // overlapping: merges
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2: %v", s.Count(), s.Intervals())
	}
	if got := s.Total(); got != 40 {
		t.Errorf("total = %v, want 40", got)
	}
	s.Add(60, 60) // zero length ignored
	if s.Count() != 2 {
		t.Errorf("zero-length interval should be ignored")
	}
}

// TestIntervalSetOutOfOrderPanics pins the FIFO ordering contract: adds
// whose start precedes the previous interval's start indicate a broken
// cost model and must panic instead of silently widening the previous
// interval.
func TestIntervalSetOutOfOrderPanics(t *testing.T) {
	var s IntervalSet
	s.Add(10, 20)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order Add should panic")
			}
		}()
		s.Add(5, 8)
	}()
	// Overlapping-but-ordered adds still merge without panicking.
	s.Add(15, 30)
	if s.Count() != 1 || s.Total() != 20 {
		t.Errorf("merge after ordered overlap: count=%d total=%v", s.Count(), s.Total())
	}
}

func TestIntervalSetOverlap(t *testing.T) {
	var s IntervalSet
	s.Add(0, 10)
	s.Add(20, 30)
	cases := []struct {
		a, b, want float64
	}{
		{0, 10, 10},
		{5, 25, 10}, // 5 from first, 5 from second
		{10, 20, 0}, // gap
		{-5, 100, 20},
		{25, 25, 0},
	}
	for _, c := range cases {
		if got := s.Overlap(c.a, c.b); got != c.want {
			t.Errorf("Overlap(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// overlapScan is the linear-scan Overlap the binary search replaced,
// kept as the oracle: it clips every interval to [a, b) in order.
func overlapScan(ivs []Interval, a, b float64) float64 {
	if b <= a {
		return 0
	}
	sum := 0.0
	for _, iv := range ivs {
		lo, hi := iv.Start, iv.End
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			sum += hi - lo
		}
	}
	return sum
}

// TestIntervalSetOverlapMatchesScan checks the searched Overlap against
// the scan with ==, not a tolerance: Breakdown's output bytes depend on
// the sum being bit-identical. Windows are drawn to land exactly on
// interval boundaries, before the first and after the last interval,
// and empty or inverted.
func TestIntervalSetOverlapMatchesScan(t *testing.T) {
	check := func(s *IntervalSet, a, b float64) {
		t.Helper()
		if got, want := s.Overlap(a, b), overlapScan(s.ivs, a, b); got != want {
			t.Fatalf("Overlap(%v, %v) = %v, scan = %v over %v", a, b, got, want, s.ivs)
		}
	}
	var empty IntervalSet
	check(&empty, 0, 10)
	check(&empty, 10, 0)

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		var s IntervalSet
		at := rng.Float64() * 100
		for n := rng.Intn(40); n > 0; n-- {
			// Gaps of zero make adjacent adds merge; negative gaps overlap.
			at += rng.Float64()*30 - 5
			if at < 0 {
				at = 0
			}
			if n := s.Count(); n > 0 && at < s.ivs[n-1].Start {
				at = s.ivs[n-1].Start
			}
			end := at + rng.Float64()*50
			if rng.Intn(4) == 0 {
				end = at + 1e-9*rng.Float64()
			}
			s.Add(at, end)
			at = end
		}
		for i := 1; i < s.Count(); i++ {
			if !(s.ivs[i-1].End < s.ivs[i].Start) {
				t.Fatalf("set not sorted and disjoint: %v", s.ivs)
			}
		}
		// Candidate window edges: every boundary, points just inside and
		// outside them, and the space beyond both ends.
		edges := []float64{-1e9, -1, 0, 1e12}
		for _, iv := range s.ivs {
			edges = append(edges, iv.Start, iv.End,
				math.Nextafter(iv.Start, -1), math.Nextafter(iv.End, 1e18),
				iv.Start+iv.Len()/3)
		}
		for k := 0; k < 200; k++ {
			a := edges[rng.Intn(len(edges))]
			b := edges[rng.Intn(len(edges))]
			if rng.Intn(8) == 0 {
				b = a
			}
			check(&s, a, b)
			check(&s, b, a)
			check(&s, a, a+rng.Float64()*200)
		}
	}
}

func TestLinkFIFO(t *testing.T) {
	e := New()
	l := NewLink(e, "pcie", GBPerSec(10)) // 10 bytes/ns
	var ends []float64
	l.Transfer(1000, 0, 1, func(end float64) { ends = append(ends, end) })
	l.Transfer(1000, 0, 1, func(end float64) { ends = append(ends, end) })
	e.Run()
	if len(ends) != 2 {
		t.Fatalf("got %d completions", len(ends))
	}
	if ends[0] != 100 || ends[1] != 200 {
		t.Errorf("ends = %v, want [100 200]", ends)
	}
	if got := l.Busy().Total(); got != 200 {
		t.Errorf("busy total = %v, want 200", got)
	}
}

func TestLinkLatencyAndEfficiency(t *testing.T) {
	e := New()
	l := NewLink(e, "pcie", GBPerSec(10))
	// 1000 bytes at 50% efficiency = 200ns service + 40ns latency.
	end := l.Transfer(1000, 40, 0.5, nil)
	if end != 240 {
		t.Errorf("end = %v, want 240", end)
	}
	if got := l.TransferTime(1000, 40, 0.5); got != 240 {
		t.Errorf("TransferTime = %v, want 240", got)
	}
}

func TestLinkQueuesBehindBusy(t *testing.T) {
	e := New()
	l := NewLink(e, "x", 1)
	l.Transfer(100, 0, 1, nil) // busy until 100
	e.RunUntil(50)
	end := l.Transfer(10, 0, 1, nil)
	if end != 110 {
		t.Errorf("queued transfer end = %v, want 110", end)
	}
}

func TestLinkReset(t *testing.T) {
	e := New()
	l := NewLink(e, "x", 1)
	l.Transfer(100, 0, 1, nil)
	e.Run()
	l.Reset()
	if l.BusyUntil() != 0 || l.Busy().Total() != 0 {
		t.Errorf("reset link should be idle")
	}
}

func TestLinkInvalidArgs(t *testing.T) {
	e := New()
	for _, bad := range []float64{0, -1} {
		func() {
			defer func() { recover() }()
			NewLink(e, "bad", bad)
			t.Errorf("NewLink with bw %v should panic", bad)
		}()
	}
	l := NewLink(e, "ok", 1)
	for _, bad := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() { recover() }()
			l.TransferTime(10, 0, bad)
			t.Errorf("efficiency %v should panic", bad)
		}()
	}
}

// Property: total busy time of a FIFO link equals the sum of service
// times when transfers never overlap (they cannot, by FIFO construction).
func TestQuickLinkBusyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		e := New()
		l := NewLink(e, "x", 2)
		total := 0.0
		n := 1 + rng.Intn(20)
		for j := 0; j < n; j++ {
			size := float64(1 + rng.Intn(1000))
			total += l.TransferTime(size, 0, 1)
			l.Transfer(size, 0, 1, nil)
		}
		e.Run()
		if math.Abs(l.Busy().Total()-total) > 1e-6 {
			t.Fatalf("busy %v != sum of service %v", l.Busy().Total(), total)
		}
		if math.Abs(l.BusyUntil()-total) > 1e-6 {
			t.Fatalf("drain time %v != %v (back-to-back FIFO)", l.BusyUntil(), total)
		}
	}
}
