package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/relation"
)

// kernelTable builds 3000 rows over two continuous columns whose values
// come from a small pool — NaN, ±Inf and the very values clause bounds are
// drawn from, so rows land exactly on bounds — and a discrete column with
// a six-code dictionary.
func kernelTable(rng *rand.Rand) *relation.Table {
	schema := relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "y", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	for i := 0; i < 3000; i++ {
		b.MustAppend(relation.Row{
			relation.F(kernelValue(rng)),
			relation.S(fmt.Sprintf("d%d", rng.Intn(6))),
			relation.F(kernelValue(rng)),
		})
	}
	return b.Build()
}

var kernelValues = []float64{math.NaN(), math.Inf(-1), math.Inf(1), -2, 0, 1, 1.5, 2, 3, 5, 8}

func kernelValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return kernelValues[rng.Intn(len(kernelValues))]
	}
	return float64(rng.Intn(100))/10 - 2
}

// randomKernelPredicate draws one to three clauses. Range bounds come from
// the value pool (±Inf included) and include Lo == Hi with and without
// HiInc; set clauses may name codes absent from the dictionary.
func randomKernelPredicate(rng *rand.Rand) Predicate {
	bound := func() float64 {
		for {
			if v := kernelValue(rng); !math.IsNaN(v) {
				return v
			}
		}
	}
	rangeClause := func(col int, name string) Clause {
		lo, hi := bound(), bound()
		switch {
		case rng.Intn(5) == 0:
			hi = lo
		case lo > hi:
			lo, hi = hi, lo
		}
		return NewRangeClause(col, name, lo, hi, rng.Intn(2) == 0)
	}
	var cs []Clause
	if rng.Intn(3) > 0 {
		cs = append(cs, rangeClause(0, "x"))
	}
	if rng.Intn(2) == 0 {
		var codes []int32
		for k := 1 + rng.Intn(3); k > 0; k-- {
			codes = append(codes, int32(rng.Intn(9))) // 6..8 are not in the dictionary
		}
		if rng.Intn(4) == 0 {
			codes = append(codes, 1<<20, -1)
		}
		cs = append(cs, NewSetClause(1, "d", codes))
	}
	if len(cs) == 0 || rng.Intn(3) == 0 {
		cs = append(cs, rangeClause(2, "y"))
	}
	return MustNew(cs...)
}

// referenceMatch is an independent row-at-a-time evaluation of the
// clause semantics: Lo <= v < Hi (v <= Hi with HiInc) for ranges, where NaN
// matches nothing; code membership in Values for sets.
func referenceMatch(p Predicate, t *relation.Table, r int) bool {
	for _, c := range p.Clauses() {
		if c.Kind == relation.Continuous {
			v := t.Floats(c.Col)[r]
			if math.IsNaN(v) || v < c.Lo || v > c.Hi || (v == c.Hi && !c.HiInc) {
				return false
			}
			continue
		}
		code, in := t.Codes(c.Col)[r], false
		for _, want := range c.Values {
			if want == code {
				in = true
			}
		}
		if !in {
			return false
		}
	}
	return true
}

// kernelUniverses returns, for a table of n rows, nil (every row) and
// universes built sparse, as runs and dense, asserting the encoding each
// ends up in.
func kernelUniverses(t *testing.T, rng *rand.Rand, n int) []*relation.RowSet {
	sparse := relation.NewRowSet(n)
	for i := 0; i < 40; i++ {
		sparse.Add(rng.Intn(n))
	}
	runs := relation.NewRowSet(n)
	for lo := rng.Intn(50); lo < n; lo += 600 + rng.Intn(400) {
		runs.AddRange(lo, min(n, lo+100+rng.Intn(1500)))
	}
	dense := relation.NewDenseRowSet(n)
	for r := 0; r < n; r++ {
		if rng.Intn(3) > 0 {
			dense.Add(r)
		}
	}
	universes := []*relation.RowSet{nil, sparse, runs, dense}
	for i, want := range []string{"sparse", "runs", "dense"} {
		if got := universes[i+1].Encoding(); got != want {
			t.Fatalf("%s universe is encoded %s", want, got)
		}
	}
	return universes
}

// TestCompiledMatchesReference is the differential test of the compiled
// kernel: over random predicates, every universe encoding and a View
// window, Match, Eval, Count, ContainedIn and Scan must agree with
// referenceMatch.
func TestCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := kernelTable(rng)
	for _, tbl := range []*relation.Table{base, base.Window(777, 2531).Data()} {
		universes := kernelUniverses(t, rng, tbl.NumRows())
		for i := 0; i < 150; i++ {
			p := randomKernelPredicate(rng)
			q := randomKernelPredicate(rng)
			cp := p.Compile(tbl)
			for r := 0; r < tbl.NumRows(); r++ {
				if got, want := cp.Match(r), referenceMatch(p, tbl, r); got != want {
					t.Fatalf("%d rows: %v on row %d: Match %v, reference %v", tbl.NumRows(), p, r, got, want)
				}
			}
			for _, u := range universes {
				var want []int
				contained := true
				each := func(r int) {
					if referenceMatch(p, tbl, r) {
						want = append(want, r)
						contained = contained && referenceMatch(q, tbl, r)
					}
				}
				if u == nil {
					for r := 0; r < tbl.NumRows(); r++ {
						each(r)
					}
				} else {
					u.ForEach(each)
				}
				got := p.Eval(tbl, u)
				if !got.Equal(relation.RowSetOf(tbl.NumRows(), want...)) {
					t.Fatalf("%d rows, universe %v: Eval(%v) = %v, want %d rows", tbl.NumRows(), u, p, got, len(want))
				}
				if n := p.Count(tbl, u); n != len(want) {
					t.Fatalf("%d rows, universe %v: Count(%v) = %d, want %d", tbl.NumRows(), u, p, n, len(want))
				}
				if c := p.ContainedIn(q, tbl, u); c != contained {
					t.Fatalf("%d rows, universe %v: %v ContainedIn %v = %v, want %v", tbl.NumRows(), u, p, q, c, contained)
				}
				checkScanBlocks(t, cp, tbl.NumRows(), u, want)
			}
		}
	}
}

// checkScanBlocks asserts Scan's contract: blocks are ascending, disjoint,
// at most scanBlock rows, lie inside the universe and cover it exactly, and
// each block's matches lie inside it and concatenate to want.
func checkScanBlocks(t *testing.T, cp *Compiled, n int, u *relation.RowSet, want []int) {
	t.Helper()
	covered := relation.NewRowSet(n)
	var got []int
	prev := 0
	cp.Scan(u, func(lo, hi int, matched []int) {
		if lo < prev || hi <= lo || hi-lo > scanBlock {
			t.Fatalf("bad block [%d,%d) after %d", lo, hi, prev)
		}
		prev = hi
		covered.AddRange(lo, hi)
		for _, r := range matched {
			if r < lo || r >= hi {
				t.Fatalf("match %d outside block [%d,%d)", r, lo, hi)
			}
		}
		got = append(got, matched...)
	})
	wantCover := relation.FullRowSet(n)
	if u != nil {
		wantCover = u
	}
	if !covered.Equal(wantCover) {
		t.Fatalf("Scan blocks cover %v, want %v", covered, wantCover)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Scan matched %d rows, want %d", len(got), len(want))
	}
}

// TestCompiledLoadReuse recompiles one Compiled across predicates of
// different shapes: stale bitmap bits or terms must never leak from one
// predicate into the next.
func TestCompiledLoadReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := kernelTable(rng)
	var cp Compiled
	for i := 0; i < 200; i++ {
		p := randomKernelPredicate(rng)
		cp.Load(p, tbl)
		for r := 0; r < tbl.NumRows(); r += 7 {
			if got, want := cp.Match(r), referenceMatch(p, tbl, r); got != want {
				t.Fatalf("reused Compiled for %v on row %d: %v, want %v", p, r, got, want)
			}
		}
	}
}
