// Package aggregate implements Scorpion's aggregate-operator framework (§5
// of the paper): plain (black-box) aggregate functions plus the three
// optional properties that unlock the efficient algorithms —
//
//   - incrementally removable (§5.1): the aggregate decomposes into
//     state/update/remove/recover so that removing a subset only requires
//     reading that subset;
//   - independent (§5.2): input tuples influence the result independently,
//     enabling the DT partitioner's greedy reasoning;
//   - anti-monotonic (§5.3): Δ of a contained predicate never exceeds Δ of
//     its container (subject to a data-dependent check), enabling MC's
//     pruning.
//
// All built-in statistical aggregates (SUM, COUNT, AVG, VARIANCE, STDDEV,
// MIN, MAX, MEDIAN) are provided, and arbitrary user-defined aggregates can
// be registered as black boxes.
package aggregate

import (
	"fmt"
	"strings"
)

// Func is a (possibly black-box) aggregate function over a projected
// attribute. Compute must be a pure function of its input; the framework
// may call it many times on overlapping subsets.
type Func interface {
	// Name returns the canonical lower-case name, e.g. "avg".
	Name() string
	// Compute evaluates the aggregate over vals. Implementations define
	// their own result for empty input (commonly 0 or NaN).
	Compute(vals []float64) float64
	// Independent reports the §5.2 property: whether tuples influence the
	// result independently of each other.
	Independent() bool
}

// State is a constant-size summary of an input set for incrementally
// removable aggregates, as produced by Removable.State.
type State []float64

// Clone returns an independent copy of the state.
func (s State) Clone() State {
	c := make(State, len(s))
	copy(c, s)
	return c
}

// Removable is the incrementally removable property (§5.1): F(D−S) is
// computable from state(D) and state(S) alone.
type Removable interface {
	Func
	// State summarizes a value multiset into a constant-size tuple. It
	// writes the tuple into dst's storage when dst has the capacity (dst
	// may be nil), so a hot loop that keeps dst allocates nothing.
	State(dst State, vals []float64) State
	// Update combines n disjoint states into the state of their union.
	Update(states ...State) State
	// Remove computes state(D−S) from state(D) and state(S), where S ⊆ D,
	// writing into dst's storage like State. dst may alias d or s.
	Remove(dst, d, s State) State
	// Recover recomputes the aggregate result from a state.
	Recover(s State) float64
}

// AntiMonotonic is the §5.3 property. Check inspects the aggregate's input
// values and reports whether Δ is anti-monotonic on this data (e.g. SUM
// requires non-negative values).
type AntiMonotonic interface {
	Func
	Check(vals []float64) bool
}

// EmptySafe is implemented by aggregates with a well-defined value on empty
// input (SUM and COUNT yield 0). The Scorer uses it when a predicate removes
// an entire input group.
type EmptySafe interface {
	Func
	EmptyValue() float64
}

// ByName returns the built-in aggregate with the given (case-insensitive)
// name.
func ByName(name string) (Func, error) {
	switch strings.ToLower(name) {
	case "sum":
		return Sum{}, nil
	case "count":
		return Count{}, nil
	case "avg", "mean":
		return Avg{}, nil
	case "var", "variance":
		return Variance{}, nil
	case "stddev", "std":
		return StdDev{}, nil
	case "min":
		return Min{}, nil
	case "max":
		return Max{}, nil
	case "median":
		return Median{}, nil
	default:
		return nil, fmt.Errorf("aggregate: unknown aggregate %q", name)
	}
}

// UDA wraps an arbitrary function as a black-box user-defined aggregate.
// Black-box aggregates get no properties, so Scorpion falls back to the
// NAIVE partitioner and full recomputation (§4).
type UDA struct {
	FuncName      string
	Fn            func([]float64) float64
	IsIndependent bool
}

// Name implements Func.
func (u UDA) Name() string { return u.FuncName }

// Compute implements Func.
func (u UDA) Compute(vals []float64) float64 { return u.Fn(vals) }

// Independent implements Func.
func (u UDA) Independent() bool { return u.IsIndependent }
