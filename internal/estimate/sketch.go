package estimate

import (
	"math"
	"math/rand"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/sample"
)

// defaultSketchRows is the per-hold-out-group sample size a Sketch keeps.
const defaultSketchRows = 256

// Sketch is a tiny full-table hold-out sample the shard coordinator ships
// to its shard searches: shard-local rankings are hold-out-blind whenever a
// window carries few (or no) hold-out rows, so the strongest shard
// candidates tend to be the widest ones and the per-shard top-k cut can
// starve the combiner of the λ-optimal box. Penalty estimates a candidate's
// GLOBAL hold-out penalty from the sketch — a point estimate, cheap enough
// to run on every shard candidate before the cut; the combiner's exact
// re-score still settles final scores.
//
// A Sketch is immutable after construction and safe for concurrent use.
type Sketch struct {
	tab    *relation.Table
	c      float64
	kind   deltaKind
	groups []sketchGroup
}

type sketchGroup struct {
	rows []int
	vals []float64 // nil for COUNT
	n    int
	k    int
}

// NewSketch samples each hold-out group of the scorer's FULL-table task, or
// returns nil when the task has no hold-outs or an unsupported aggregate.
// rowsPerGroup ≤ 0 uses the default (256).
func NewSketch(scorer *influence.Scorer, rowsPerGroup int) *Sketch {
	task := scorer.Task()
	if !Supported(task) || len(task.HoldOuts) == 0 {
		return nil
	}
	if rowsPerGroup <= 0 {
		rowsPerGroup = defaultSketchRows
	}
	tab := task.Table.Data()
	s := &Sketch{tab: tab, c: task.C}
	var aggVals []float64
	if _, ok := task.Agg.(aggregate.Count); ok {
		s.kind = kindCount
	} else if task.AggCol >= 0 {
		aggVals = tab.Floats(task.AggCol)
	}
	gen := int64(tab.NumRows())
	for _, g := range task.HoldOuts {
		sg := sketchGroup{rows: make([]int, 0, g.Rows.Count())}
		g.Rows.ForEach(func(r int) { sg.rows = append(sg.rows, r) })
		sg.n = len(sg.rows)
		rng := rand.New(rand.NewSource(sample.GroupSeed(gen, g.Key)))
		rng.Shuffle(sg.n, func(i, j int) { sg.rows[i], sg.rows[j] = sg.rows[j], sg.rows[i] })
		sg.k = rowsPerGroup
		if sg.k > sg.n {
			sg.k = sg.n
		}
		sg.rows = sg.rows[:sg.k]
		if aggVals != nil {
			sg.vals = make([]float64, sg.k)
			for i, r := range sg.rows {
				sg.vals[i] = aggVals[r]
			}
		}
		s.groups = append(s.groups, sg)
	}
	return s
}

// Penalty estimates max_h |inf(h, p)| for a (base-table) predicate from the
// per-group sketches: matched count and sum scale up by each group's
// sampling rate, then feed the same Δ/|p(g)|^c form the exact scorer uses.
func (s *Sketch) Penalty(p predicate.Predicate) float64 {
	worst := 0.0
	cp := p.Compile(s.tab)
	for i := range s.groups {
		g := &s.groups[i]
		cnt := 0
		var sum float64
		if g.vals == nil {
			for _, r := range g.rows {
				if cp.Match(r) {
					cnt++
				}
			}
			sum = float64(cnt)
		} else {
			for j, r := range g.rows {
				if cp.Match(r) {
					cnt++
					sum += g.vals[j]
				}
			}
		}
		if cnt == 0 {
			continue
		}
		up := float64(g.n) / float64(g.k)
		m := float64(cnt) * up
		delta := sum * up
		if s.kind == kindCount {
			delta = m
		}
		inf := delta
		if s.c != 0 {
			inf = delta / math.Pow(math.Max(1, m), s.c)
		}
		if a := math.Abs(inf); a > worst {
			worst = a
		}
	}
	return worst
}
