package sim

import "fmt"

// Interval is a half-open span [Start, End) of virtual time in ns.
type Interval struct {
	Start, End float64
}

// Len returns the duration of the interval.
func (iv Interval) Len() float64 { return iv.End - iv.Start }

// IntervalSet accumulates busy intervals of a resource. Intervals must be
// added in non-decreasing start order (which FIFO links guarantee);
// overlapping or adjacent intervals are merged so the set stays compact.
//
// Invariant: the stored intervals are sorted and pairwise disjoint with
// gaps between them (ivs[i].End < ivs[i+1].Start), so both starts and
// ends strictly increase. Overlap's binary search relies on it.
type IntervalSet struct {
	ivs []Interval
}

// Add records the busy span [start, end). Zero- or negative-length spans
// are ignored. Starts must be non-decreasing: FIFO links reserve time
// monotonically, so an out-of-order add indicates a broken cost model
// and panics (like Engine.At does for past scheduling) rather than being
// silently merged into the previous interval.
func (s *IntervalSet) Add(start, end float64) {
	if end <= start {
		return
	}
	n := len(s.ivs)
	if n > 0 {
		if start < s.ivs[n-1].Start {
			panic(fmt.Sprintf("sim: interval added at %v before previous start %v", start, s.ivs[n-1].Start))
		}
		if start <= s.ivs[n-1].End {
			// Overlapping or adjacent: merge with the previous interval.
			if end > s.ivs[n-1].End {
				s.ivs[n-1].End = end
			}
			return
		}
	}
	s.ivs = append(s.ivs, Interval{start, end})
}

// Total returns the summed busy time across all intervals.
func (s *IntervalSet) Total() float64 {
	sum := 0.0
	for _, iv := range s.ivs {
		sum += iv.Len()
	}
	return sum
}

// Overlap returns the amount of busy time that falls inside [a, b). It
// binary-searches the first interval ending after a and stops at the
// first starting at or after b; every interval it skips contributes
// exactly nothing, so the sum (and its rounding) equals a full scan's.
func (s *IntervalSet) Overlap(a, b float64) float64 {
	if b <= a {
		return 0
	}
	ivs := s.ivs
	lo, hi := 0, len(ivs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ivs[m].End > a {
			hi = m
		} else {
			lo = m + 1
		}
	}
	sum := 0.0
	for _, iv := range ivs[lo:] {
		if iv.Start >= b {
			break
		}
		l, h := iv.Start, iv.End
		if l < a {
			l = a
		}
		if h > b {
			h = b
		}
		if h > l {
			sum += h - l
		}
	}
	return sum
}

// Count returns the number of merged intervals in the set.
func (s *IntervalSet) Count() int { return len(s.ivs) }

// Reset clears the set for reuse.
func (s *IntervalSet) Reset() { s.ivs = s.ivs[:0] }

// Intervals returns a copy of the merged interval list.
func (s *IntervalSet) Intervals() []Interval {
	return append([]Interval(nil), s.ivs...)
}
