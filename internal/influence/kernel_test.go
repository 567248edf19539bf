package influence

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// kernelTask builds a grouped table — 8 groups of 400 rows, stored group
// by group so provenance is run-encoded — with a continuous dimension x
// (some NaN), a discrete dimension d and the aggregate column v, and a
// task over it: 2 outlier and 3 hold-out groups.
func kernelTask(t testing.TB, agg string) *Task {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	rng := rand.New(rand.NewSource(7))
	for g := 0; g < 8; g++ {
		for i := 0; i < 400; i++ {
			x := rng.Float64() * 100
			if rng.Intn(50) == 0 {
				x = math.NaN()
			}
			v := rng.NormFloat64()*10 + 50
			if g < 2 && x > 30 && x < 60 {
				v += 40
			}
			b.MustAppend(relation.Row{
				relation.S(fmt.Sprintf("g%d", g)), relation.F(x),
				relation.S(fmt.Sprintf("d%d", rng.Intn(6))), relation.F(v),
			})
		}
	}
	tbl := b.Build()
	q, err := query.FromSQL(tbl, "SELECT "+agg+"(v), g FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	group := func(key string) *relation.RowSet {
		row, ok := res.Lookup(key)
		if !ok {
			t.Fatalf("missing group %q", key)
		}
		return row.Group
	}
	f, err := aggregate.ByName(agg)
	if err != nil {
		t.Fatal(err)
	}
	return &Task{
		Table:  tbl,
		Agg:    f,
		AggCol: tbl.Schema().MustIndex("v"),
		Outliers: []Group{
			{Key: "g0", Rows: group("g0"), Direction: TooHigh},
			{Key: "g1", Rows: group("g1"), Direction: TooHigh},
		},
		HoldOuts: []Group{{Key: "g2", Rows: group("g2")}, {Key: "g3", Rows: group("g3")}, {Key: "g4", Rows: group("g4")}},
		Lambda:   0.5,
		C:        0.5,
	}
}

// kernelPredicates covers a single range, a range plus a set clause, and
// a set clause alone.
func kernelPredicates(tbl *relation.Table) []predicate.Predicate {
	x, d := tbl.Schema().MustIndex("x"), tbl.Schema().MustIndex("d")
	return []predicate.Predicate{
		predicate.MustNew(predicate.NewRangeClause(x, "x", 30, 60, false)),
		predicate.MustNew(
			predicate.NewRangeClause(x, "x", 20, 70, true),
			predicate.NewSetClause(d, "d", []int32{0, 2, 3}),
		),
		predicate.MustNew(predicate.NewSetClause(d, "d", []int32{1, 4})),
	}
}

// TestScorerPartsAllocs is the allocation guard of the scoring kernel: a
// warm Parts call — compiled predicate, value buffers and aggregate
// states all recycled — allocates nothing on the incremental (SUM, AVG)
// and black-box (MEDIAN) paths.
func TestScorerPartsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries")
	}
	for _, agg := range []string{"sum", "avg", "median"} {
		task := kernelTask(t, agg)
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range kernelPredicates(task.Table.Data()) {
			s.Parts(p) // warm the pool and grow the buffers
			if n := testing.AllocsPerRun(200, func() { s.Parts(p) }); n != 0 {
				t.Errorf("%s: warm Parts(%v) allocates %v times per call, want 0", agg, p, n)
			}
		}
	}
}

// TestPartsMatchesRowReference checks the compiled kernel against the §3.2
// definition evaluated row at a time: the predicate tested per row by
// an independent clause check, matched and remaining values collected in
// row order, and the aggregate updated with the same State/Remove/Recover
// (or Compute) calls. The results must agree bit for bit.
func TestPartsMatchesRowReference(t *testing.T) {
	for _, agg := range []string{"sum", "avg", "count", "median", "stddev"} {
		task := kernelTask(t, agg)
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range kernelPredicates(task.Table.Data()) {
			gotOut, gotHold := s.Parts(p)
			wantOut, wantHold := referenceParts(task, p)
			if math.Float64bits(gotOut) != math.Float64bits(wantOut) ||
				math.Float64bits(gotHold) != math.Float64bits(wantHold) {
				t.Errorf("%s %v: Parts = (%v, %v), reference (%v, %v)", agg, p, gotOut, gotHold, wantOut, wantHold)
			}
		}
	}
}

// referenceParts computes Scorer.Parts from the definition.
func referenceParts(task *Task, p predicate.Predicate) (outMean, holdPenalty float64) {
	tbl := task.Table.Data()
	admits := func(r int) bool {
		for _, c := range p.Clauses() {
			if c.Kind == relation.Continuous {
				v := tbl.Floats(c.Col)[r]
				if v < c.Lo || v > c.Hi || (v == c.Hi && !c.HiInc) || math.IsNaN(v) {
					return false
				}
				continue
			}
			in := false
			for _, code := range c.Values {
				in = in || code == tbl.Codes(c.Col)[r]
			}
			if !in {
				return false
			}
		}
		return true
	}
	rem, incremental := task.Agg.(aggregate.Removable)
	inf := func(g Group) float64 {
		var all, matched, rest []float64
		g.Rows.ForEach(func(r int) {
			all = append(all, task.Value(r))
			if admits(r) {
				matched = append(matched, task.Value(r))
			} else {
				rest = append(rest, task.Value(r))
			}
		})
		if len(matched) == 0 {
			return 0
		}
		var orig, d float64
		switch {
		case incremental:
			st := rem.State(nil, all)
			orig = rem.Recover(st)
			d = orig - rem.Recover(rem.Remove(nil, st, rem.State(nil, matched)))
		default:
			orig = task.Agg.Compute(all)
			d = orig - task.Agg.Compute(rest)
		}
		if len(rest) == 0 {
			d = 0
			if es, ok := task.Agg.(aggregate.EmptySafe); ok {
				d = orig - es.EmptyValue()
			}
		}
		if math.IsNaN(d) || math.IsInf(d, 0) {
			d = 0
		}
		return d / math.Pow(float64(len(matched)), task.C)
	}
	for _, g := range task.Outliers {
		outMean += inf(g) * float64(g.Direction)
	}
	outMean /= float64(len(task.Outliers))
	for _, g := range task.HoldOuts {
		holdPenalty = math.Max(holdPenalty, math.Abs(inf(g)))
	}
	return outMean, holdPenalty
}

// TestKernelConcurrentScratch scores from several goroutines at once on one
// scorer per aggregate, so pooled scratch (compiled predicates, value
// buffers, states, MEDIAN's selection copies) is handed between callers;
// every result must equal the serial one bit for bit.
func TestKernelConcurrentScratch(t *testing.T) {
	for _, agg := range []string{"sum", "median"} {
		task := kernelTask(t, agg)
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		preds := kernelPredicates(task.Table.Data())
		type result struct{ out, hold, maxTuple, tuple float64 }
		score := func(p predicate.Predicate, r int) result {
			out, hold := s.Parts(p)
			return result{out, hold, s.MaxTupleInfluence(p), s.TupleOutlierInfluence(1, r)}
		}
		row := task.Outliers[1].Rows.Min()
		want := make([]result, len(preds))
		for i, p := range preds {
			want[i] = score(p, row+i)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					i := (w + k) % len(preds)
					if got := score(preds[i], row+i); got != want[i] {
						t.Errorf("%s %v: concurrent %+v, serial %+v", agg, preds[i], got, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
