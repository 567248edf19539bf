package aggregate

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Sum is the SUM aggregate: incrementally removable, independent, and
// anti-monotonic when all inputs are non-negative (§5.3).
type Sum struct{}

// Name implements Func.
func (Sum) Name() string { return "sum" }

// Compute implements Func.
func (Sum) Compute(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// Independent implements Func.
func (Sum) Independent() bool { return true }

// State implements Removable: [sum].
func (Sum) State(dst State, vals []float64) State { return append(dst[:0], Sum{}.Compute(vals)) }

// Update implements Removable.
func (Sum) Update(states ...State) State {
	s := 0.0
	for _, st := range states {
		s += st[0]
	}
	return State{s}
}

// Remove implements Removable.
func (Sum) Remove(dst, d, s State) State { return append(dst[:0], d[0]-s[0]) }

// Recover implements Removable.
func (Sum) Recover(s State) float64 { return s[0] }

// Check implements AntiMonotonic: SUM(D) bounds SUM of subsets only when no
// value is negative.
func (Sum) Check(vals []float64) bool {
	for _, v := range vals {
		if v < 0 {
			return false
		}
	}
	return true
}

// EmptyValue implements EmptySafe.
func (Sum) EmptyValue() float64 { return 0 }

// Count is the COUNT aggregate: incrementally removable, independent, and
// unconditionally anti-monotonic.
type Count struct{}

// Name implements Func.
func (Count) Name() string { return "count" }

// Compute implements Func.
func (Count) Compute(vals []float64) float64 { return float64(len(vals)) }

// Independent implements Func.
func (Count) Independent() bool { return true }

// State implements Removable: [count].
func (Count) State(dst State, vals []float64) State { return append(dst[:0], float64(len(vals))) }

// Update implements Removable.
func (Count) Update(states ...State) State {
	n := 0.0
	for _, st := range states {
		n += st[0]
	}
	return State{n}
}

// Remove implements Removable.
func (Count) Remove(dst, d, s State) State { return append(dst[:0], d[0]-s[0]) }

// Recover implements Removable.
func (Count) Recover(s State) float64 { return s[0] }

// Check implements AntiMonotonic: density is always anti-monotonic.
func (Count) Check([]float64) bool { return true }

// EmptyValue implements EmptySafe.
func (Count) EmptyValue() float64 { return 0 }

// Avg is the AVG aggregate: incrementally removable and independent
// (the paper's §5.1 worked example).
type Avg struct{}

// Name implements Func.
func (Avg) Name() string { return "avg" }

// Compute implements Func. The average of no values is NaN.
func (Avg) Compute(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return Sum{}.Compute(vals) / float64(len(vals))
}

// Independent implements Func.
func (Avg) Independent() bool { return true }

// State implements Removable: [sum, count].
func (Avg) State(dst State, vals []float64) State {
	return append(dst[:0], Sum{}.Compute(vals), float64(len(vals)))
}

// Update implements Removable.
func (Avg) Update(states ...State) State {
	out := State{0, 0}
	for _, st := range states {
		out[0] += st[0]
		out[1] += st[1]
	}
	return out
}

// Remove implements Removable.
func (Avg) Remove(dst, d, s State) State { return append(dst[:0], d[0]-s[0], d[1]-s[1]) }

// Recover implements Removable. Empty state recovers NaN.
func (Avg) Recover(s State) float64 {
	if s[1] == 0 {
		return math.NaN()
	}
	return s[0] / s[1]
}

// Variance is the population VARIANCE aggregate: incrementally removable
// (state [sum, sumsq, count]) and independent.
type Variance struct{}

// Name implements Func.
func (Variance) Name() string { return "variance" }

// Compute implements Func. Variance of fewer than one value is NaN.
func (Variance) Compute(vals []float64) float64 {
	return Variance{}.Recover(Variance{}.State(nil, vals))
}

// Independent implements Func.
func (Variance) Independent() bool { return true }

// State implements Removable: [sum, sum of squares, count].
func (Variance) State(dst State, vals []float64) State {
	var sum, sumsq float64
	for _, v := range vals {
		sum += v
		sumsq += v * v
	}
	return append(dst[:0], sum, sumsq, float64(len(vals)))
}

// Update implements Removable.
func (Variance) Update(states ...State) State {
	out := State{0, 0, 0}
	for _, st := range states {
		out[0] += st[0]
		out[1] += st[1]
		out[2] += st[2]
	}
	return out
}

// Remove implements Removable.
func (Variance) Remove(dst, d, s State) State {
	return append(dst[:0], d[0]-s[0], d[1]-s[1], d[2]-s[2])
}

// Recover implements Removable: E[X²] − E[X]², clamped at zero to absorb
// floating-point cancellation.
func (Variance) Recover(s State) float64 {
	n := s[2]
	if n <= 0 {
		return math.NaN()
	}
	mean := s[0] / n
	v := s[1]/n - mean*mean
	if v < 0 {
		v = 0
	}
	return v
}

// StdDev is the population STDDEV aggregate: incrementally removable and
// independent. It is the aggregate used by the paper's INTEL workloads.
type StdDev struct{}

// Name implements Func.
func (StdDev) Name() string { return "stddev" }

// Compute implements Func.
func (StdDev) Compute(vals []float64) float64 {
	return math.Sqrt(Variance{}.Compute(vals))
}

// Independent implements Func.
func (StdDev) Independent() bool { return true }

// State implements Removable (same state as Variance).
func (StdDev) State(dst State, vals []float64) State { return Variance{}.State(dst, vals) }

// Update implements Removable.
func (StdDev) Update(states ...State) State { return Variance{}.Update(states...) }

// Remove implements Removable.
func (StdDev) Remove(dst, d, s State) State { return Variance{}.Remove(dst, d, s) }

// Recover implements Removable.
func (StdDev) Recover(s State) float64 { return math.Sqrt(Variance{}.Recover(s)) }

// Min is the MIN aggregate. It is not incrementally removable (§5.1:
// recomputing after removing the minimum requires the full dataset).
type Min struct{}

// Name implements Func.
func (Min) Name() string { return "min" }

// Compute implements Func. Min of no values is NaN.
func (Min) Compute(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Independent implements Func. MIN is dominated by a single tuple; tuple
// contributions are not independent.
func (Min) Independent() bool { return false }

// Max is the MAX aggregate: not incrementally removable, but Δ is
// unconditionally anti-monotonic (§5.3 defines MAX.check(D)=True).
type Max struct{}

// Name implements Func.
func (Max) Name() string { return "max" }

// Compute implements Func. Max of no values is NaN.
func (Max) Compute(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Independent implements Func.
func (Max) Independent() bool { return false }

// Check implements AntiMonotonic.
func (Max) Check([]float64) bool { return true }

// Median is the MEDIAN aggregate: a black-box order statistic, neither
// incrementally removable nor independent. It exercises Scorpion's NAIVE
// fallback path.
type Median struct{}

// Name implements Func.
func (Median) Name() string { return "median" }

// Compute implements Func. Median of no values is NaN; even-length inputs
// average the two middle values. The middle values are found by selection
// in O(n) on a pooled working copy (vals is not modified), under the order
// sort.Float64s uses — NaN below everything, then −Inf … +Inf — so the
// result is the one sorting would give. (Zeros of either sign compare
// equal, so which one sits in the middle is unspecified either way.)
func (Median) Compute(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	buf := medianScratch.Get().(*[]float64)
	w := append((*buf)[:0], vals...)
	var m float64
	if k := n / 2; n%2 == 1 {
		m = selectKth(w, k)
	} else {
		// After selecting rank k−1 every later element ranks no lower, so
		// rank k is the least of them. (A NaN after it means lo is NaN too,
		// and so is the mean, so the plain comparison suffices.)
		lo := selectKth(w, k-1)
		hi := w[k]
		for _, v := range w[k+1:] {
			if v < hi {
				hi = v
			}
		}
		m = (lo + hi) / 2
	}
	*buf = w
	medianScratch.Put(buf)
	return m
}

// medianScratch recycles Median.Compute's working copies, so scoring a
// black-box MEDIAN allocates nothing once the buffers have grown.
var medianScratch = sync.Pool{New: func() any { return new([]float64) }}

// selectKth reorders w so that w[k] holds the element of rank k under
// sort.Float64s' order, every element before it ranks no higher and every
// element after it no lower, and returns w[k].
func selectKth(w []float64, k int) float64 {
	// NaNs rank lowest: move them to the front.
	nan := 0
	for i, v := range w {
		if math.IsNaN(v) {
			w[i], w[nan] = w[nan], v
			nan++
		}
	}
	if k < nan {
		return w[k]
	}
	// Quickselect with a median-of-three pivot and a three-way partition
	// (ties cost nothing); after 2·log₂n rounds without converging, sort
	// the remaining window, which bounds the worst case at O(n log n).
	lo, hi := nan, len(w)-1
	for rounds := 2 * bits.Len(uint(len(w))); lo < hi; rounds-- {
		if rounds == 0 {
			sort.Float64s(w[lo : hi+1])
			break
		}
		mid := lo + (hi-lo)/2
		p := median3(w[lo], w[mid], w[hi])
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := w[i]; {
			case v < p:
				w[lt], w[i] = v, w[lt]
				lt++
				i++
			case v > p:
				w[gt], w[i] = v, w[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return w[k]
		}
	}
	return w[k]
}

// median3 returns the middle of three values.
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// Independent implements Func.
func (Median) Independent() bool { return false }

// Static interface conformance checks.
var (
	_ Removable     = Sum{}
	_ Removable     = Count{}
	_ Removable     = Avg{}
	_ Removable     = Variance{}
	_ Removable     = StdDev{}
	_ AntiMonotonic = Sum{}
	_ AntiMonotonic = Count{}
	_ AntiMonotonic = Max{}
	_ EmptySafe     = Sum{}
	_ EmptySafe     = Count{}
	_ Func          = Min{}
	_ Func          = Median{}
	_ Func          = UDA{}
)
