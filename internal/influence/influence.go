// Package influence implements Scorpion's notion of predicate influence
// (§3.2 of the paper) and the Scorer component (§4.1).
//
// For a single outlier result o with error vector v_o and a predicate p:
//
//	Δagg(o, p)     = agg(g_o) − agg(g_o − p(g_o))
//	inf(o, p, v_o) = (Δagg(o, p) / |p(g_o)|^c) · v_o
//
// and for outlier set O, hold-out set H with trade-off λ:
//
//	inf(O, H, p, V) = λ · (1/|O|) Σ_o inf(o, p, v_o)
//	                − (1−λ) · max_h |inf(h, p)|
//
// The exponent c is the §7 knob trading result change against predicate
// selectivity (c=1 recovers the basic §3.2 definition).
//
// The Scorer offers two execution paths. For incrementally removable
// aggregates (§5.1) it caches state(g) per input group and computes updated
// results by removing the state of the matched tuples — cost proportional to
// |p(g)|. For black-box aggregates it recomputes agg(g − p(g)) — cost
// proportional to |g|.
//
// Both paths share one kernel. A scoring call compiles the predicate once
// (predicate.Compiled) and reuses it for every outlier and hold-out group;
// Δ walks each group's RowSet run by run, and the matched values
// (incremental) or remaining values (black-box) accumulate in row order in
// pooled per-call scratch, so the aggregate sees exactly the inputs, in
// exactly the order, that a row-at-a-time evaluation would give it. A warm
// scoring call allocates nothing.
package influence

import (
	"fmt"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Direction encodes a one-dimensional error vector (§3.1): whether the user
// judged an outlier result too high (+1) or too low (−1).
type Direction float64

const (
	// TooHigh means the outlier's value should decrease.
	TooHigh Direction = 1
	// TooLow means the outlier's value should increase.
	TooLow Direction = -1
)

// Group is one flagged query result: its provenance rows and, for outliers,
// the user's error vector.
type Group struct {
	// Key identifies the result row (its group-by key).
	Key string
	// Rows is the input group g of the result.
	Rows *relation.RowSet
	// Direction is the error vector for outliers; ignored for hold-outs.
	Direction Direction
}

// Task bundles everything the Scorer needs: the data, the aggregate, the
// flagged result groups, and the user knobs.
type Task struct {
	// Table is the relation the task's row ids index: a whole table, or a
	// relation.View for a shard-local task whose scorer must see only its
	// window's rows. Group RowSets use the relation's (local) id space.
	Table relation.Relation
	// Agg is the aggregate under explanation.
	Agg aggregate.Func
	// AggCol is the aggregate attribute column index, or -1 for count(*).
	AggCol int
	// Outliers and HoldOuts carry the flagged result groups.
	Outliers []Group
	HoldOuts []Group
	// Lambda trades outlier influence against hold-out stability (§3.2).
	Lambda float64
	// C is the §7 selectivity knob; 1 recovers the basic definition.
	C float64
	// Perturb switches Δ from tuple deletion to value perturbation — the
	// alternative formulation the paper's §3.2 footnote mentions but does
	// not explore. When non-nil, Δagg(o, p) = agg(g) − agg(g with every
	// matched tuple's aggregate value replaced by *Perturb), answering
	// "how would the result change had these readings been <value>?". The
	// matched-tuple count still feeds the c denominator.
	Perturb *float64
}

// Validate checks the task's invariants.
func (t *Task) Validate() error {
	if t.Table == nil {
		return fmt.Errorf("influence: task has no table")
	}
	if t.Agg == nil {
		return fmt.Errorf("influence: task has no aggregate")
	}
	if len(t.Outliers) == 0 {
		return fmt.Errorf("influence: task has no outlier results")
	}
	if t.Lambda < 0 || t.Lambda > 1 {
		return fmt.Errorf("influence: lambda %v outside [0,1]", t.Lambda)
	}
	if t.C < 0 {
		return fmt.Errorf("influence: c %v must be non-negative", t.C)
	}
	if t.AggCol >= 0 && t.Table.Schema().Column(t.AggCol).Kind != relation.Continuous {
		return fmt.Errorf("influence: aggregate column must be continuous")
	}
	for _, g := range t.Outliers {
		if g.Direction != TooHigh && g.Direction != TooLow {
			return fmt.Errorf("influence: outlier %q needs an error vector of ±1", g.Key)
		}
	}
	return nil
}

// Value returns the aggregate attribute of row r. For count(*) (AggCol
// < 0) every tuple contributes 1 to the aggregate, so 1 is returned —
// callers such as the algorithm chooser can then run data-dependent
// property checks (§5.3's check(D)) on real per-tuple values instead of an
// empty projection.
func (t *Task) Value(r int) float64 {
	if t.AggCol < 0 {
		return 1
	}
	return t.Table.Floats(t.AggCol)[r]
}

// groupValues projects the aggregate attribute over a group.
func (t *Task) groupValues(g Group) []float64 {
	out := make([]float64, 0, g.Rows.Count())
	g.Rows.ForEach(func(r int) { out = append(out, t.Value(r)) })
	return out
}

// Scorer evaluates predicate influence. It caches per-group aggregate state
// (for incrementally removable aggregates) and memoizes predicate scores.
//
// A Scorer is safe for concurrent use: the per-group states are immutable
// after construction, the memoized score cache is sharded and synchronized,
// and the Calls counter is atomic — so every worker of a parallel search
// can share one Scorer (and one memo cache) instead of rebuilding per-group
// state per goroutine.
type Scorer struct {
	task *Task
	rem  aggregate.Removable // nil → black-box path
	// tab is task.Table.Data(): the concrete columnar window. Hot loops
	// (predicate matching, value projection) use it directly so scoring a
	// view costs the same per row as scoring a table.
	tab     *relation.Table
	aggVals []float64 // tab's aggregate column; nil for count(*)

	outOrig   []float64 // original aggregate value per outlier group
	holdOrig  []float64
	outState  []aggregate.State // cached state(g), incremental path only
	holdState []aggregate.State

	calls atomic.Int64 // number of (group × predicate) delta evaluations
	cache scoreCache
	// scratch pools per-call working memory (*scratch), one per concurrent
	// caller, so warm scoring calls allocate nothing.
	scratch sync.Pool
}

// scratch is one scoring call's working memory: the predicate compiled
// against the scorer's table, the group's projected values, and the
// aggregate states of the incremental update.
type scratch struct {
	pred predicate.Compiled
	// vals holds, in row order, the matched values (incremental path) or
	// the remaining values (black-box path) of the group being scored.
	vals []float64
	fill []float64 // perturbation replacement values
	st   aggregate.State
	upd  aggregate.State
}

func newScratch() any { return new(scratch) }

// compile takes a scratch from the pool with p compiled into it; callers
// return it with s.scratch.Put.
func (s *Scorer) compile(p predicate.Predicate) *scratch {
	sc := s.scratch.Get().(*scratch)
	sc.pred.Load(p, s.tab)
	return sc
}

// cacheShards is the number of score-cache stripes. Keys hash across
// shards, so concurrent workers scoring distinct predicates rarely contend
// on the same lock.
const cacheShards = 64

// scoreCache is a sharded, synchronized string→float64 memo table.
// Hit/miss counters are striped per shard (the shard struct is already a
// contention domain), so the memo hit rate is observable without adding
// a shared cache-line to the scoring hot path.
type scoreCache struct {
	seed   maphash.Seed
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu     sync.RWMutex
	m      map[string]float64
	hits   atomic.Int64
	misses atomic.Int64
}

func (c *scoreCache) init() {
	c.seed = maphash.MakeSeed()
	for i := range c.shards {
		c.shards[i].m = make(map[string]float64)
	}
}

func (c *scoreCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%cacheShards]
}

func (c *scoreCache) get(key string) (float64, bool) {
	sh := c.shard(key)
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		sh.hits.Add(1)
	} else {
		sh.misses.Add(1)
	}
	return v, ok
}

func (c *scoreCache) stats() (hits, misses int64) {
	for i := range c.shards {
		hits += c.shards[i].hits.Load()
		misses += c.shards[i].misses.Load()
	}
	return hits, misses
}

// size reports the number of memoized entries and an estimate of their
// heap footprint: per-entry map overhead plus the interned key bytes.
func (c *scoreCache) size() (entries int, bytes int64) {
	// Rough per-entry cost of a map[string]float64 bucket slot: the string
	// header (16) + float64 (8) + amortized bucket/overflow overhead.
	const entryOverhead = 48
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k := range sh.m {
			entries++
			bytes += int64(len(k)) + entryOverhead
		}
		sh.mu.RUnlock()
	}
	return entries, bytes
}

func (c *scoreCache) put(key string, v float64) {
	sh := c.shard(key)
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
}

func (c *scoreCache) reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m = make(map[string]float64)
		sh.mu.Unlock()
	}
}

// newScorer sets up the parts of a scorer both constructors share.
func newScorer(task *Task) *Scorer {
	s := &Scorer{task: task, tab: task.Table.Data()}
	if task.AggCol >= 0 {
		s.aggVals = s.tab.Floats(task.AggCol)
	}
	s.cache.init()
	s.scratch.New = newScratch
	return s
}

// NewScorer builds a scorer, validating the task and choosing the
// incremental path when the aggregate supports it.
func NewScorer(task *Task) (*Scorer, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	s := newScorer(task)
	if rem, ok := task.Agg.(aggregate.Removable); ok {
		s.rem = rem
	}
	init := func(groups []Group) ([]float64, []aggregate.State) {
		orig := make([]float64, len(groups))
		states := make([]aggregate.State, len(groups))
		for i, g := range groups {
			vals := task.groupValues(g)
			if s.rem != nil {
				states[i] = s.rem.State(nil, vals)
				orig[i] = s.rem.Recover(states[i])
			} else {
				orig[i] = task.Agg.Compute(vals)
			}
		}
		return orig, states
	}
	s.outOrig, s.outState = init(task.Outliers)
	s.holdOrig, s.holdState = init(task.HoldOuts)
	return s, nil
}

// NewScorerSeeded builds a scorer whose per-group aggregate states are
// PROVIDED rather than computed — the streaming warm-start path (§5.1 meets
// live data): a stream tracker that maintained state(g) incrementally
// across append batches hands the states over, and the scorer skips the
// O(|D|) per-group projection pass entirely. Original aggregate values are
// recovered from the states.
//
// The task's aggregate must be incrementally removable, and outStates /
// holdStates must align 1:1 with task.Outliers / task.HoldOuts. States are
// cloned, so the caller may keep advancing its own copies afterwards.
func NewScorerSeeded(task *Task, outStates, holdStates []aggregate.State) (*Scorer, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	rem, ok := task.Agg.(aggregate.Removable)
	if !ok {
		return nil, fmt.Errorf("influence: seeded scorer requires an incrementally removable aggregate; %q is not", task.Agg.Name())
	}
	if len(outStates) != len(task.Outliers) || len(holdStates) != len(task.HoldOuts) {
		return nil, fmt.Errorf("influence: seeded states mismatch groups: %d/%d outliers, %d/%d hold-outs",
			len(outStates), len(task.Outliers), len(holdStates), len(task.HoldOuts))
	}
	s := newScorer(task)
	s.rem = rem
	adopt := func(states []aggregate.State) ([]float64, []aggregate.State) {
		orig := make([]float64, len(states))
		own := make([]aggregate.State, len(states))
		for i, st := range states {
			own[i] = st.Clone()
			orig[i] = rem.Recover(own[i])
		}
		return orig, own
	}
	s.outOrig, s.outState = adopt(outStates)
	s.holdOrig, s.holdState = adopt(holdStates)
	return s, nil
}

// Task returns the scorer's task.
func (s *Scorer) Task() *Task { return s.task }

// Incremental reports whether the scorer runs the §5.1 incremental path.
func (s *Scorer) Incremental() bool { return s.rem != nil }

// Calls reports how many Δ evaluations have run — (group × predicate)
// scorings plus the single-tuple evaluations the DT partitioner uses to
// label tuples. It is the Scorer cost metric used by the Merger
// optimization experiments and by the serving layer to demonstrate
// §8.3.3 partition reuse (a reused partitioning skips all re-labeling).
func (s *Scorer) Calls() int64 { return s.calls.Load() }

// MemoStats reports memo-cache hits and misses across all shards. The
// hit rate (hits / (hits+misses)) is the serving-layer signal for how
// much revisiting (merge expansions, refinement re-scores) a search did.
func (s *Scorer) MemoStats() (hits, misses int64) { return s.cache.stats() }

// MemoSize reports the number of memoized predicate scores and an estimate
// of the memo cache's heap footprint in bytes. The BENCH_memory lane tracks
// it next to provenance bytes/row; it walks every shard under its read
// lock, so it is a diagnostics call, not a hot-path one.
func (s *Scorer) MemoSize() (entries int, bytes int64) { return s.cache.size() }

// OutlierResult returns the cached original aggregate value of outlier i.
func (s *Scorer) OutlierResult(i int) float64 { return s.outOrig[i] }

// HoldOutResult returns the cached original aggregate value of hold-out i.
func (s *Scorer) HoldOutResult(i int) float64 { return s.holdOrig[i] }

// value returns the aggregate attribute of local row r (1 for count(*)) —
// the hot-path sibling of Task.Value, reading the slice cached at
// construction instead of going through the Relation interface per row.
func (s *Scorer) value(r int) float64 {
	if s.aggVals == nil {
		return 1
	}
	return s.aggVals[r]
}

// appendRows appends the aggregate values of rows to dst.
func (s *Scorer) appendRows(dst []float64, rows []int) []float64 {
	if s.aggVals == nil {
		for range rows {
			dst = append(dst, 1)
		}
		return dst
	}
	for _, r := range rows {
		dst = append(dst, s.aggVals[r])
	}
	return dst
}

// appendRange appends the aggregate values of rows [lo, hi) to dst.
func (s *Scorer) appendRange(dst []float64, lo, hi int) []float64 {
	if s.aggVals == nil {
		for ; lo < hi; lo++ {
			dst = append(dst, 1)
		}
		return dst
	}
	return append(dst, s.aggVals[lo:hi]...)
}

// delta computes Δagg(group, p) and the number of matched tuples for the
// predicate compiled into sc. One scan of the group's runs collects, in
// row order, the matched values (incremental path: state(p(g)) is removed
// from the cached state(g)) or the remaining ones (black-box path:
// agg(g − p(g)) is recomputed).
func (s *Scorer) delta(sc *scratch, g Group, orig float64, state aggregate.State) (float64, int) {
	s.calls.Add(1)
	t := s.task
	matched, total := 0, 0
	vals := sc.vals[:0]
	sc.pred.Scan(g.Rows, func(lo, hi int, sel []int) {
		total += hi - lo
		matched += len(sel)
		if s.rem != nil {
			vals = s.appendRows(vals, sel)
			return
		}
		for _, r := range sel {
			vals = s.appendRange(vals, lo, r)
			lo = r + 1
		}
		vals = s.appendRange(vals, lo, hi)
	})
	sc.vals = vals
	if matched == 0 {
		return 0, 0
	}
	if t.Perturb != nil {
		return s.perturbDelta(sc, orig, state, matched), matched
	}
	if matched == total {
		// The predicate deletes the whole input group: the output would
		// disappear rather than move. For aggregates with a defined empty
		// value (SUM, COUNT → 0) use it; otherwise treat as non-influential.
		if es, ok := t.Agg.(aggregate.EmptySafe); ok {
			return orig - es.EmptyValue(), matched
		}
		return 0, matched
	}
	var updated float64
	if s.rem != nil {
		sc.st = s.rem.State(sc.st, vals)
		sc.upd = s.rem.Remove(sc.upd, state, sc.st)
		updated = s.rem.Recover(sc.upd)
	} else {
		updated = t.Agg.Compute(vals)
	}
	d := orig - updated
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0, matched
	}
	return d, matched
}

// perturbDelta computes the footnote-3 variant: matched values are replaced
// by the target value rather than deleted. sc.vals holds what delta
// collected.
func (s *Scorer) perturbDelta(sc *scratch, orig float64, state aggregate.State, matched int) float64 {
	target := *s.task.Perturb
	sc.fill = sc.fill[:0]
	for i := 0; i < matched; i++ {
		sc.fill = append(sc.fill, target)
	}
	var updated float64
	if s.rem != nil {
		sc.st = s.rem.State(sc.st, sc.vals)
		sc.upd = s.rem.Remove(sc.upd, state, sc.st)
		updated = s.rem.Recover(s.rem.Update(sc.upd, s.rem.State(nil, sc.fill)))
	} else {
		sc.vals = append(sc.vals, sc.fill...)
		updated = s.task.Agg.Compute(sc.vals)
	}
	d := orig - updated
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0
	}
	return d
}

// scale applies the c-knob denominator: Δ / n^c with n = |p(g)| ≥ 1.
func (s *Scorer) scale(delta float64, n int) float64 {
	if n == 0 {
		return 0
	}
	if s.task.C == 0 {
		return delta
	}
	return delta / math.Pow(float64(n), s.task.C)
}

// OutlierInfluence computes inf(o_i, p, v_i) for outlier index i.
func (s *Scorer) OutlierInfluence(i int, p predicate.Predicate) float64 {
	sc := s.compile(p)
	v := s.outlierInfluence(sc, i)
	s.scratch.Put(sc)
	return v
}

func (s *Scorer) outlierInfluence(sc *scratch, i int) float64 {
	g := s.task.Outliers[i]
	d, n := s.delta(sc, g, s.outOrig[i], s.outStateAt(i))
	return s.scale(d, n) * float64(g.Direction)
}

// HoldOutInfluence computes inf(h_i, p) (no error vector) for hold-out i.
func (s *Scorer) HoldOutInfluence(i int, p predicate.Predicate) float64 {
	sc := s.compile(p)
	v := s.holdOutInfluence(sc, i)
	s.scratch.Put(sc)
	return v
}

func (s *Scorer) holdOutInfluence(sc *scratch, i int) float64 {
	d, n := s.delta(sc, s.task.HoldOuts[i], s.holdOrig[i], s.holdStateAt(i))
	return s.scale(d, n)
}

// InfluenceOutliersOnly computes inf(O, ∅, p, V) — the hold-out-free
// influence used by MC's conservative pruning (§6.2) — without the λ weight.
func (s *Scorer) InfluenceOutliersOnly(p predicate.Predicate) float64 {
	sc := s.compile(p)
	v := s.outlierMean(sc)
	s.scratch.Put(sc)
	return v
}

func (s *Scorer) outlierMean(sc *scratch) float64 {
	sum := 0.0
	for i := range s.task.Outliers {
		sum += s.outlierInfluence(sc, i)
	}
	return sum / float64(len(s.task.Outliers))
}

// Influence computes the full objective inf(O, H, p, V). Scores are memoized
// by the predicate's canonical key. Concurrent callers scoring the same
// predicate may both compute it (the computation is pure), but only one
// value is retained.
func (s *Scorer) Influence(p predicate.Predicate) float64 {
	key := p.Key()
	if v, ok := s.cache.get(key); ok {
		return v
	}
	v := s.influenceUncached(p)
	s.cache.put(key, v)
	return v
}

func (s *Scorer) influenceUncached(p predicate.Predicate) float64 {
	outPart, worstHold := s.Parts(p)
	return s.task.Lambda*outPart - (1-s.task.Lambda)*worstHold
}

// Parts returns the two components of the objective: the mean outlier
// influence and the hold-out penalty max_h |inf(h, p)| (0 without
// hold-outs), before the λ weighting.
//
// The predicate is compiled once and reused for every outlier and hold-out
// group.
func (s *Scorer) Parts(p predicate.Predicate) (outMean, holdPenalty float64) {
	sc := s.compile(p)
	outMean = s.outlierMean(sc)
	for i := range s.task.HoldOuts {
		if h := math.Abs(s.holdOutInfluence(sc, i)); h > holdPenalty {
			holdPenalty = h
		}
	}
	s.scratch.Put(sc)
	return outMean, holdPenalty
}

// TupleOutlierInfluence computes the influence of the single tuple at row r
// within outlier group i: Δagg(o, {t}) · v_o. Used by the DT partitioner to
// label tuples. Cost is O(1) on the incremental path.
func (s *Scorer) TupleOutlierInfluence(i, r int) float64 {
	sc := s.scratch.Get().(*scratch)
	v := s.tupleOutlierInfluence(sc, i, r)
	s.scratch.Put(sc)
	return v
}

func (s *Scorer) tupleOutlierInfluence(sc *scratch, i, r int) float64 {
	g := s.task.Outliers[i]
	return s.tupleInfluence(sc, g, s.outOrig[i], s.outStateAt(i), r) * float64(g.Direction)
}

// TupleHoldOutInfluence computes Δagg(h, {t}) for row r of hold-out group i.
func (s *Scorer) TupleHoldOutInfluence(i, r int) float64 {
	sc := s.scratch.Get().(*scratch)
	v := s.tupleInfluence(sc, s.task.HoldOuts[i], s.holdOrig[i], s.holdStateAt(i), r)
	s.scratch.Put(sc)
	return v
}

func (s *Scorer) outStateAt(i int) aggregate.State {
	if s.rem == nil {
		return nil
	}
	return s.outState[i]
}

func (s *Scorer) holdStateAt(i int) aggregate.State {
	if s.rem == nil {
		return nil
	}
	return s.holdState[i]
}

// tupleInfluence computes Δagg(g, {r}) with sc's value and state buffers
// (never its compiled predicate, which MaxTupleInfluence is scanning).
func (s *Scorer) tupleInfluence(sc *scratch, g Group, orig float64, state aggregate.State, r int) float64 {
	s.calls.Add(1)
	t := s.task
	var updated float64
	if s.rem != nil {
		sc.vals = append(sc.vals[:0], s.value(r))
		sc.st = s.rem.State(sc.st, sc.vals)
		sc.upd = s.rem.Remove(sc.upd, state, sc.st)
		st := sc.upd
		if t.Perturb != nil {
			st = s.rem.Update(st, s.rem.State(nil, []float64{*t.Perturb}))
		}
		updated = s.rem.Recover(st)
	} else {
		// Black-box: rebuild the group without row r (or with r's value
		// replaced, in perturbation mode).
		rest := sc.vals[:0]
		g.Rows.ForEachRun(func(lo, hi int) {
			if lo <= r && r < hi {
				rest = s.appendRange(rest, lo, r)
				lo = r + 1
			}
			rest = s.appendRange(rest, lo, hi)
		})
		if t.Perturb != nil {
			rest = append(rest, *t.Perturb)
		}
		sc.vals = rest
		updated = t.Agg.Compute(rest)
	}
	d := orig - updated
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0
	}
	return d
}

// MaxTupleInfluence returns the maximum single-tuple influence of any tuple
// matched by p across the outlier groups — the upper bound used by MC's
// second pruning rule (§6.2).
func (s *Scorer) MaxTupleInfluence(p predicate.Predicate) float64 {
	sc := s.compile(p)
	best := math.Inf(-1)
	for i, g := range s.task.Outliers {
		sc.pred.Scan(g.Rows, func(_, _ int, sel []int) {
			for _, r := range sel {
				if v := s.tupleOutlierInfluence(sc, i, r); v > best {
					best = v
				}
			}
		})
	}
	s.scratch.Put(sc)
	return best
}

// ResetCache clears the memoized predicate scores (used when the task's C
// changes between runs while keeping cached group states).
func (s *Scorer) ResetCache() { s.cache.reset() }

// SetC updates the task's c knob in place and clears the memoized
// predicate scores; the cached per-group aggregate states — which do not
// depend on c — are kept, so a c sweep pays only re-scoring, never state
// rebuilding. Not safe to call concurrently with scoring: callers (the
// Explainer's per-session c sweeps) serialize runs.
func (s *Scorer) SetC(c float64) error {
	if c < 0 {
		return fmt.Errorf("influence: c %v must be non-negative", c)
	}
	if s.task.C == c {
		return nil // same knob: the memoized scores stay valid
	}
	s.task.C = c
	s.cache.reset()
	return nil
}
