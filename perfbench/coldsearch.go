package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// cold-search: one library caller runs ExplainContext in a seeded
// rotation over four operation classes, each a full search from scratch:
//
//   - dt: DT over AVG on SYNTH-2D (10 groups x 2,000 rows, 5 outlier groups)
//   - mc: MC over SUM on the same table
//   - naive: NAIVE over the black-box MEDIAN with 4 bins, same table
//   - anytime: NAIVE over SUM with 8 bins and epsilon ~15% of the top
//     score, on 12 groups x 1,000 rows with 2 outlier groups
//
// Nearly all the time goes to search and scoring; no server, cache,
// session or shard is involved (20k rows resolve to one shard). The run
// cycles through coldSets independent datasets so that one unlucky table
// does not set a run's medians.
const (
	coldSets       = 8
	coldWorkers    = 2
	naiveBins      = 4
	anytimeBins    = 8
	anytimeEpsilon = 225 // ~15% of the top SUM influence at this shape
)

var coldClasses = []string{"dt", "mc", "naive", "anytime"}

type coldSet struct {
	synth2d, anytime *dataset
	// serial holds the Workers=1 reference of each class; exact is the
	// epsilon=0 reference the anytime answers are bounded against.
	serial map[string]*scorpion.Result
	cands  map[string]int // search-span candidate counts of the references
	exact  *scorpion.Result
	tasks  map[string]*influence.Task
}

type coldSearch struct {
	b     *bench
	sets  []*coldSet
	units int // rotations started
}

func newColdSearch(b *bench) (workload, error) { return &coldSearch{b: b}, nil }

func (w *coldSearch) clients() int      { return 1 }
func (w *coldSearch) classes() []string { return coldClasses }
func (w *coldSearch) close()            {}

func (w *coldSearch) setup() error {
	w.sets = nil
	for i := 0; i < coldSets; i++ {
		a, err := loadSynth(synth.Config{Dims: 2, TuplesPerGroup: 2000, Groups: 10, OutlierGroups: 5, Seed: subSeed(w.b.seed, "synth2d", i)})
		if err != nil {
			return err
		}
		b, err := loadSynth(synth.Config{Dims: 2, TuplesPerGroup: 1000, Groups: 12, OutlierGroups: 2, Seed: subSeed(w.b.seed, "anytime", i)})
		if err != nil {
			return err
		}
		w.sets = append(w.sets, &coldSet{synth2d: a, anytime: b})
	}
	// Warm-up: one operation of every class, untimed by the phases.
	for _, class := range coldClasses {
		if _, err := scorpion.ExplainContext(context.Background(), w.request(class, 0, coldWorkers)); err != nil {
			return fmt.Errorf("warm-up %s: %w", class, err)
		}
	}
	return nil
}

// request builds the class's request on set i.
func (w *coldSearch) request(class string, i, workers int) *scorpion.Request {
	s := w.sets[i]
	ds, agg := s.synth2d, "sum"
	r := &scorpion.Request{Direction: scorpion.TooHigh, Workers: workers}
	switch class {
	case "dt":
		agg, r.Algorithm = "avg", scorpion.DT
	case "mc":
		r.Algorithm = scorpion.MC
	case "naive":
		agg, r.Algorithm = "median", scorpion.Naive
		r.NaiveParams = &naive.Params{Bins: naiveBins}
	case "anytime", "exact":
		ds, r.Algorithm = s.anytime, scorpion.Naive
		r.NaiveParams = &naive.Params{Bins: anytimeBins}
		if class == "anytime" {
			r.Epsilon = anytimeEpsilon
		}
	}
	r.Table, r.SQL = ds.Table, sqlFor(agg)
	r.Outliers, r.HoldOuts, r.Attributes = ds.OutlierKeys, ds.HoldOutKeys, ds.DimNames()
	return r
}

// prepare computes every set's serial references, two sets at a time:
// the references run at Workers=1, so two of them fill the machine.
func (w *coldSearch) prepare() error {
	errs := make([]error, len(w.sets))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(w.sets); i += 2 {
				errs[i] = w.references(i)
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// references computes set i's serial reference of every class, the
// exact run the anytime answers are bounded against, and the influence
// tasks the F1 scores use.
func (w *coldSearch) references(i int) error {
	s := w.sets[i]
	s.serial = map[string]*scorpion.Result{}
	s.cands = map[string]int{}
	s.tasks = map[string]*influence.Task{}
	for _, class := range append([]string{"exact"}, coldClasses...) {
		req := w.request(class, i, 1)
		root := obs.NewSpan("op")
		res, err := scorpion.ExplainContext(obs.ContextWithSpan(context.Background(), root), req)
		root.End()
		if err != nil {
			return fmt.Errorf("%s reference: %w", class, err)
		}
		if n := root.Snapshot().Find("search"); n != nil {
			s.cands[class], _ = n.Attrs["candidates"].(int)
		}
		if class == "exact" {
			s.exact = res
			continue
		}
		s.serial[class] = res
		if s.tasks[class], _, err = groupTask(req.Table, req.SQL, req.Outliers, req.HoldOuts, scorpion.DefaultLambda, scorpion.DefaultC); err != nil {
			return err
		}
	}
	return nil
}

type coldOp struct {
	set int
	res *scorpion.Result
	err error
	reg *obs.Registry
}

func (w *coldSearch) unit(ph *phase, _ int) error {
	order := rngFor(w.b.seed, "rotation", w.units).Perm(len(coldClasses))
	set := w.units % coldSets
	w.units++
	for _, k := range order {
		class := coldClasses[k]
		req := w.request(class, set, coldWorkers)
		ctx := context.Background()
		var root *obs.Span
		var reg *obs.Registry
		if ph.traced {
			root = obs.NewSpan("op")
			reg = obs.NewRegistry()
			ctx = obs.ContextWithRegistry(obs.ContextWithSpan(ctx, root), reg)
		}
		start := time.Now()
		res, err := scorpion.ExplainContext(ctx, req)
		lat := time.Since(start)
		o := &op{class: class, set: set, latency: lat, data: &coldOp{set: set, res: res, err: err, reg: reg}}
		if root != nil {
			root.End()
			o.tree = fromObs(root.Snapshot(), 0)
		}
		ph.record(o)
	}
	return nil
}

func (w *coldSearch) check(ph *phase, layers map[string]float64) error {
	var pruned, escalated, memoHits, memoMisses float64
	for _, o := range ph.ops {
		d, ok := o.data.(*coldOp)
		if !ok {
			continue
		}
		s := w.sets[d.set]
		if d.err != nil || d.res == nil {
			ph.fail(o, "explain: %v", d.err)
			continue
		}
		if d.res.Stats.Interrupted {
			ph.fail(o, "search interrupted: %s", d.res.Stats.InterruptReason)
			continue
		}
		ref := s.serial[o.class]
		if o.class == "anytime" {
			if msg := withinEpsilon(d.res, s.exact, anytimeEpsilon); msg != "" {
				ph.fail(o, "anytime answer: %s", msg)
			}
		} else if msg := diffAnswers(libAnswers(d.res), libAnswers(ref)); msg != "" {
			ph.fail(o, "answer differs from the serial reference: %s", msg)
		}
		// MC's parallel frontier scoring races on the memo, so only the
		// other classes' scorer-call counts are fixed functions of the
		// input.
		if o.class != "mc" && d.res.Stats.ScorerCalls != ref.Stats.ScorerCalls {
			ph.fail(o, "scorer calls %d, serial reference %d", d.res.Stats.ScorerCalls, ref.Stats.ScorerCalls)
		}
		if len(d.res.Explanations) > 0 {
			o.f1, o.hasF1 = topF1(d.res.Explanations[0].Predicate, tableOf(s, o.class), s.tasks[o.class], truthOf(s, o.class)), true
		}
		if o.class == "anytime" {
			pruned += float64(d.res.Stats.Pruned)
			escalated += float64(d.res.Stats.Escalated)
		}
		if d.reg != nil {
			snap := d.reg.Snapshot()
			memoHits += counter(snap, "scorpion_scorer_memo_hits_total")
			memoMisses += counter(snap, "scorpion_scorer_memo_misses_total")
		}
	}
	if !ph.traced {
		return nil
	}
	if pruned+escalated > 0 {
		layers["estimate.pruned_ratio"] = pruned / (pruned + escalated)
	}
	if memoHits+memoMisses > 0 {
		layers["influence.memo_hit_ratio"] = memoHits / (memoHits + memoMisses)
	}
	return w.probeLayers(layers)
}

// probeLayers times single calls into the lower layers' exported
// functions on this run's inputs, after the timed phases.
func (w *coldSearch) probeLayers(layers map[string]float64) error {
	var loads []float64
	for _, s := range w.sets {
		loads = append(loads, ms(s.synth2d.loadTime), ms(s.anytime.loadTime))
	}
	layers["relation.load_ms"] = median(loads)
	s := w.sets[0]
	tbl := s.synth2d.Table
	if err := probeQuery(tbl, layers); err != nil {
		return err
	}

	// Predicate evaluation of the DT and MC answers over the outlier rows.
	gO := eval.OutlierUnion(s.tasks["mc"])
	var evalNs, evalRows float64
	for _, class := range []string{"dt", "mc"} {
		for _, e := range s.serial[class].Explanations {
			start := time.Now()
			for k := 0; k < 20; k++ {
				e.Predicate.Eval(tbl, gO)
			}
			evalNs += float64(time.Since(start).Nanoseconds())
			evalRows += 20 * float64(gO.Count())
		}
	}
	if evalRows > 0 {
		layers["predicate.eval_ns_per_row"] = evalNs / evalRows
	}

	// Influence of the returned predicates, replayed through fresh
	// scorers with the memo reset before every call: the black-box path
	// (MEDIAN) and the incremental one (SUM).
	for class, name := range map[string]string{"naive": "blackbox", "mc": "incremental"} {
		sc, err := influence.NewScorer(s.tasks[class])
		if err != nil {
			return err
		}
		var calls float64
		start := time.Now()
		for k := 0; k < 20; k++ {
			for _, e := range s.serial[class].Explanations {
				sc.ResetCache()
				sc.Influence(e.Predicate)
				calls++
			}
		}
		layers["influence.ns_per_call."+name] = float64(time.Since(start).Nanoseconds()) / calls
	}

	// Merging the DT answers as candidates.
	sc, err := influence.NewScorer(s.tasks["dt"])
	if err != nil {
		return err
	}
	space, err := predicate.NewSpace(tbl, s.synth2d.DimNames(), nil)
	if err != nil {
		return err
	}
	var cands []partition.Candidate
	for _, e := range s.serial["dt"].Explanations {
		cands = append(cands, partition.Candidate{Pred: e.Predicate, Score: e.Influence})
	}
	var merges []float64
	for k := 0; k < 5; k++ {
		start := time.Now()
		merge.New(sc, space, merge.Params{}).Merge(cands)
		merges = append(merges, ms(time.Since(start)))
	}
	layers["merge.ms"] = median(merges)

	// Exact counts: the serial references' scorer calls and candidates,
	// per set on average. They repeat exactly for a seed.
	var cands2 float64
	for _, class := range coldClasses {
		var calls float64
		for _, s := range w.sets {
			calls += float64(s.serial[class].Stats.ScorerCalls)
			cands2 += float64(s.cands[class])
		}
		layers["influence.calls."+class] = calls / coldSets
	}
	layers["search.candidates"] = cands2 / coldSets
	return nil
}

func tableOf(s *coldSet, class string) *scorpion.Table {
	if class == "anytime" {
		return s.anytime.Table
	}
	return s.synth2d.Table
}

func truthOf(s *coldSet, class string) *scorpion.RowSet {
	if class == "anytime" {
		return s.anytime.OuterRows
	}
	return s.synth2d.OuterRows
}

// withinEpsilon checks the anytime guarantee: every reported rank is
// within epsilon of the exact run's influence at that rank.
func withinEpsilon(got, exact *scorpion.Result, eps float64) string {
	if len(got.Explanations) != len(exact.Explanations) {
		return fmt.Sprintf("%d explanations, exact run has %d", len(got.Explanations), len(exact.Explanations))
	}
	for i, e := range got.Explanations {
		if d := exact.Explanations[i].Influence - e.Influence; d > eps || math.IsNaN(d) {
			return fmt.Sprintf("rank %d influence %v is more than %v below the exact %v", i+1, e.Influence, eps, exact.Explanations[i].Influence)
		}
	}
	return ""
}

// counter sums every series of a registry-snapshot family.
func counter(snap map[string]any, family string) float64 {
	fam, _ := snap[family].(map[string]any)
	sum := 0.0
	for _, v := range fam {
		if f, ok := v.(float64); ok {
			sum += f
		}
	}
	return sum
}
