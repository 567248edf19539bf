package main

import (
	"context"
	"math"
	"net/http"
	"testing"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/synth"
)

func smallDataset(t *testing.T) *dataset {
	t.Helper()
	ds, err := loadSynth(synth.Config{Dims: 2, TuplesPerGroup: 200, Groups: 4, OutlierGroups: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func cloneResult(r *scorpion.Result) *scorpion.Result {
	c := *r
	c.Explanations = append([]scorpion.Explanation(nil), r.Explanations...)
	return &c
}

// A library answer that differs from the serial reference in one
// influence is a failed operation, and the run reports correct=false.
func TestCorruptedLibraryAnswerFails(t *testing.T) {
	ds := smallDataset(t)
	w := &coldSearch{b: &bench{seed: 1}, sets: []*coldSet{{synth2d: ds, anytime: ds}}}
	s := w.sets[0]
	req := w.request("dt", 0, 1)
	ref, err := scorpion.ExplainContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	task, _, err := groupTask(req.Table, req.SQL, req.Outliers, req.HoldOuts, scorpion.DefaultLambda, scorpion.DefaultC)
	if err != nil {
		t.Fatal(err)
	}
	s.serial = map[string]*scorpion.Result{"dt": ref}
	s.tasks = map[string]*influence.Task{"dt": task}

	bad := cloneResult(ref)
	bad.Explanations[0].Influence += 1e-6 * math.Max(1, math.Abs(bad.Explanations[0].Influence))
	ph := &phase{}
	good := ph.record(&op{class: "dt", data: &coldOp{res: cloneResult(ref)}})
	wrong := ph.record(&op{class: "dt", data: &coldOp{res: bad}})
	if err := w.check(ph, map[string]float64{}); err != nil {
		t.Fatal(err)
	}
	if good.fail != "" {
		t.Errorf("the reference answer failed: %s", good.fail)
	}
	if wrong.fail == "" {
		t.Error("a corrupted influence was not counted as a failure")
	}
	sum := (&result{phases: []*phase{ph}, setups: nil}).summary(false)
	if sum["failed"] != 1 || sum["correct"] != false {
		t.Errorf("summary = %v, want failed=1 correct=false", sum)
	}
}

// A served answer whose explanation differs from the library reference,
// and a refused request, are failed operations.
func TestCorruptedServedAnswerFails(t *testing.T) {
	ds := smallDataset(t)
	req := &scorpion.Request{Table: ds.Table, SQL: sqlFor("sum"), Outliers: ds.OutlierKeys, HoldOuts: ds.HoldOutKeys,
		Attributes: ds.DimNames(), Direction: scorpion.TooHigh, Algorithm: scorpion.MC}
	ref, err := scorpion.ExplainContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	task, _, err := groupTask(req.Table, req.SQL, req.Outliers, req.HoldOuts, scorpion.DefaultLambda, scorpion.DefaultC)
	if err != nil {
		t.Fatal(err)
	}
	w := &interactive{sets: []*dataset{ds}, reqs: map[string]*interReq{"k": {ref: ref, task: task}}}
	served := func(mutate func(*explainResp)) *explainResp {
		resp := &explainResp{}
		for _, e := range ref.Explanations {
			resp.Explanations = append(resp.Explanations, struct {
				Where     string  `json:"where"`
				Influence float64 `json:"influence"`
			}{e.Where, e.Influence})
		}
		if mutate != nil {
			mutate(resp)
		}
		return resp
	}
	ph := &phase{}
	good := ph.record(&op{class: "sweep", data: &interOp{key: "k", http: &httpOp{status: http.StatusOK, resp: served(nil)}}})
	last := len(ref.Explanations) - 1
	wrong := ph.record(&op{class: "sweep", data: &interOp{key: "k", http: &httpOp{status: http.StatusOK, resp: served(func(r *explainResp) {
		r.Explanations[last].Where = "0 <= a1 < 1"
	})}}})
	uncached := ph.record(&op{class: "hit", data: &interOp{key: "k", http: &httpOp{status: http.StatusOK, resp: served(nil)}}})
	refused := ph.record(&op{class: "cold", data: &interOp{key: "k", http: &httpOp{status: http.StatusTooManyRequests, resp: &explainResp{}}}})
	if err := w.check(ph, map[string]float64{}); err != nil {
		t.Fatal(err)
	}
	if good.fail != "" {
		t.Errorf("the reference answer failed: %s", good.fail)
	}
	for name, o := range map[string]*op{"corrupted": wrong, "uncached repeat": uncached, "429": refused} {
		if o.fail == "" {
			t.Errorf("%s answer was not counted as a failure", name)
		}
	}
}

// The anytime check bounds every rank by epsilon below the exact run.
func TestWithinEpsilon(t *testing.T) {
	exact := &scorpion.Result{Explanations: []scorpion.Explanation{{Influence: 10}, {Influence: 8}}}
	ok := &scorpion.Result{Explanations: []scorpion.Explanation{{Influence: 9.5}, {Influence: 8}}}
	bad := &scorpion.Result{Explanations: []scorpion.Explanation{{Influence: 10}, {Influence: 6}}}
	if msg := withinEpsilon(ok, exact, 1); msg != "" {
		t.Errorf("within epsilon flagged: %s", msg)
	}
	if withinEpsilon(bad, exact, 1) == "" {
		t.Error("a rank 2 below the exact run was accepted")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct, n := tail(xs)
	// Ten samples (31..40) lie above the 30th: the 75th percentile.
	if v != 30 || pct != 75 || n != 40 {
		t.Errorf("tail = %v at p%v of %d, want 30 at p75 of 40", v, pct, n)
	}
	if v, _, _ := tail(xs[:10]); v != 0 {
		t.Errorf("tail of 10 samples = %v, want 0 (no percentile has ten above it)", v)
	}
}

// Self times, the unattributed remainder included, add up to the root's
// duration even when children overlap.
func TestSelfTimesAddUp(t *testing.T) {
	root := &node{Name: "op", Start: 0, Dur: 100, Children: []*node{
		{Name: "plan", Start: 5, Dur: 10},
		{Name: "search", Start: 20, Dur: 60, Children: []*node{
			{Name: "shard.search", Start: 20, Dur: 40},
			{Name: "shard.search", Start: 50, Dur: 40}, // overruns its parent by 10
		}},
		{Name: "rank", Start: 85, Dur: 10},
	}}
	st := selfTimes(root)
	total := 0.0
	for _, v := range st {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("self times add up to %v, want 100: %v", total, st)
	}
	want := map[string]float64{"plan": 10, "rank": 10, "unattributed": 20, "search": 0, "shard.search": 60}
	for k, v := range want {
		if math.Abs(st[k]-v) > 1e-9 {
			t.Errorf("%s self = %v, want %v", k, st[k], v)
		}
	}
}

func TestParseWhereRoundTrip(t *testing.T) {
	ds := smallDataset(t)
	res, err := scorpion.Explain(&scorpion.Request{Table: ds.Table, SQL: sqlFor("sum"), Outliers: ds.OutlierKeys,
		HoldOuts: ds.HoldOutKeys, Attributes: ds.DimNames(), Direction: scorpion.TooHigh, Algorithm: scorpion.MC})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Explanations {
		p, err := parseWhere(ds.Table, e.Where)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Format(ds.Table); got != e.Where {
			t.Errorf("parsed %q renders as %q", e.Where, got)
		}
	}
}
