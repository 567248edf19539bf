package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/catalog"
	"github.com/scorpiondb/scorpion/internal/dispatch"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/server"
	"github.com/scorpiondb/scorpion/internal/shard"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// sharded-large: one library caller runs NAIVE over SUM with an explicit
// four-way shard plan on group-contiguous SYNTH-2D tables, alternating
// between searching the shards locally and dispatching them through
// internal/dispatch to two in-process loopback workers (internal/server
// with EnableWorker). It is the only workload that exercises the shard
// planner, combine and refine, the wire codec, dispatch and the workers.
// The tables are sized so one operation takes a few hundred
// milliseconds: auto-sharding would never shard them, so the shard count
// is explicit. Operations rotate over shardSets generated tables.
const (
	shardSets     = 4
	shardGroups   = 60
	shardPer      = 400
	shardOutliers = 4
	shardBins     = 8
	shardCount    = 4
	shardWorkers  = 2
)

var shardClasses = []string{"sharded", "remote"}

type shardedLarge struct {
	b       *bench
	sets    []*shardSet
	workers []*httptest.Server
	srvs    []*server.Server
	pool    *dispatch.Pool
	client  *http.Client
	units   int
}

// shardSet is one generated table with its references: the unsharded
// top predicate and a local sharded answer, computed before timing.
type shardSet struct {
	ds        *dataset
	task      *influence.Task
	unsharded *scorpion.Result
	local     *scorpion.Result
}

type shardOp struct {
	set  int
	res  *scorpion.Result
	err  error
	mu   sync.Mutex
	rtts []time.Duration
}

func newShardedLarge(b *bench) (workload, error) { return &shardedLarge{b: b}, nil }

func (w *shardedLarge) clients() int      { return 1 }
func (w *shardedLarge) classes() []string { return shardClasses }

func (w *shardedLarge) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	for _, ts := range w.workers {
		ts.Close()
	}
	for _, s := range w.srvs {
		s.Close()
	}
	w.workers, w.srvs = nil, nil
}

func tableName(set int) string { return fmt.Sprintf("synth%d", set) }

func (w *shardedLarge) setup() error {
	w.sets = nil
	for i := 0; i < shardSets; i++ {
		ds, err := loadSynth(synth.Config{Dims: 2, TuplesPerGroup: shardPer, Groups: shardGroups, OutlierGroups: shardOutliers, Mu: 80, Seed: subSeed(w.b.seed, "sharded", i)})
		if err != nil {
			return err
		}
		w.sets = append(w.sets, &shardSet{ds: ds})
	}
	var peers []string
	for i := 0; i < 2; i++ {
		cat := catalog.New()
		for j, s := range w.sets {
			if _, err := cat.Add(tableName(j), s.ds.Table, "bench"); err != nil {
				return err
			}
		}
		srv := server.NewCatalog(cat, nil)
		srv.EnableWorker()
		ts := httptest.NewServer(srv)
		w.srvs = append(w.srvs, srv)
		w.workers = append(w.workers, ts)
		peers = append(peers, ts.URL)
	}
	// One connection per worker: at most two dispatches are in flight.
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	var err error
	if w.pool, err = dispatch.NewPool(dispatch.Options{Peers: peers, Client: w.client}); err != nil {
		return err
	}
	for _, class := range shardClasses {
		if _, err := scorpion.ExplainContext(context.Background(), w.request(class, 0, nil)); err != nil {
			return fmt.Errorf("warm-up %s: %w", class, err)
		}
	}
	return nil
}

// request builds the class's request on a set; a traced remote operation
// d gets its dispatches timed.
func (w *shardedLarge) request(class string, set int, d *shardOp) *scorpion.Request {
	ds := w.sets[set].ds
	r := &scorpion.Request{
		Table:            ds.Table,
		SQL:              sqlFor("sum"),
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        scorpion.TooHigh,
		Attributes:       ds.DimNames(),
		Algorithm:        scorpion.Naive,
		NaiveParams:      &naive.Params{Bins: shardBins},
		Workers:          shardWorkers,
		Shards:           shardCount,
	}
	switch class {
	case "unsharded":
		r.Shards = 1
	case "remote":
		r.ShardDispatch = w.pool.For(tableName(set), 1)
		if d != nil {
			r.ShardDispatch = &timedDispatch{inner: r.ShardDispatch, op: d}
		}
	}
	return r
}

// timedDispatch records a span and the round-trip time around every call
// into the dispatch layer's shard searcher.
type timedDispatch struct {
	inner scorpion.ShardDispatcher
	op    *shardOp
}

func (t *timedDispatch) Remote(spec scorpion.DispatchSpec) shard.RemoteSearcher {
	search := t.inner.Remote(spec)
	if search == nil {
		return nil
	}
	return func(ctx context.Context, rs *shard.RemoteShard) (*partition.Outcome, bool) {
		span := obs.SpanFrom(ctx).Child("dispatch")
		start := time.Now()
		out, ok := search(ctx, rs)
		d := time.Since(start)
		span.End()
		t.op.mu.Lock()
		t.op.rtts = append(t.op.rtts, d)
		t.op.mu.Unlock()
		return out, ok
	}
}

func (w *shardedLarge) prepare() error {
	for i, s := range w.sets {
		var err error
		if s.unsharded, err = scorpion.ExplainContext(context.Background(), w.request("unsharded", i, nil)); err != nil {
			return fmt.Errorf("unsharded reference: %w", err)
		}
		if s.local, err = scorpion.ExplainContext(context.Background(), w.request("sharded", i, nil)); err != nil {
			return fmt.Errorf("sharded reference: %w", err)
		}
		if s.task, _, err = groupTask(s.ds.Table, sqlFor("sum"), s.ds.OutlierKeys, nil, scorpion.DefaultLambda, scorpion.DefaultC); err != nil {
			return err
		}
	}
	return nil
}

func (w *shardedLarge) unit(ph *phase, _ int) error {
	set := w.units % shardSets
	w.units++
	for _, class := range shardClasses {
		d := &shardOp{set: set}
		ctx := context.Background()
		var root *obs.Span
		var traced *shardOp
		if ph.traced {
			root = obs.NewSpan("op")
			ctx = obs.ContextWithSpan(ctx, root)
			traced = d
		}
		req := w.request(class, set, traced)
		start := time.Now()
		d.res, d.err = scorpion.ExplainContext(ctx, req)
		lat := time.Since(start)
		o := &op{class: class, set: set, latency: lat, data: d}
		if root != nil {
			root.End()
			o.tree = fromObs(root.Snapshot(), 0)
		}
		ph.record(o)
	}
	return nil
}

func (w *shardedLarge) check(ph *phase, layers map[string]float64) error {
	var rtts []float64
	for _, o := range ph.ops {
		d, ok := o.data.(*shardOp)
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
		for _, r := range d.rtts {
			rtts = append(rtts, ms(r))
		}
		if len(d.res.Explanations) == 0 {
			ph.fail(o, "no explanation")
			continue
		}
		top := d.res.Explanations[0]
		o.f1, o.hasF1 = topF1(top.Predicate, s.ds.Table, s.task, s.ds.OuterRows), true
		if !top.Predicate.Equal(s.unsharded.Explanations[0].Predicate) {
			ph.fail(o, "top predicate %q (influence %v) differs from the unsharded reference %q (influence %v)",
				top.Where, top.Influence, s.unsharded.Explanations[0].Where, s.unsharded.Explanations[0].Influence)
			continue
		}
		// Remote answers must match the local ones exactly: the combiner
		// runs at the coordinator on either path.
		if msg := diffAnswers(libAnswers(d.res), libAnswers(s.local)); msg != "" {
			ph.fail(o, "answer differs from the local sharded reference: %s", msg)
		}
	}
	if !ph.traced {
		return nil
	}
	// The pool's counters and the workers' histograms cover the whole
	// run, warm-up included; every remote operation dispatches alike.
	st := w.pool.Stats()
	if st.Succeeded > 0 {
		layers["wire.task_bytes_per_shard"] = float64(st.BytesOut) / float64(st.Succeeded)
		layers["wire.result_bytes_per_shard"] = float64(st.BytesIn) / float64(st.Succeeded)
	}
	if st.Dispatched > 0 {
		layers["dispatch.fallback_ratio"] = float64(st.Fallbacks) / float64(st.Dispatched)
	}
	layers["dispatch.retries"] = float64(st.Retries)
	if len(rtts) > 0 {
		layers["dispatch.rtt_ms_per_shard"] = median(rtts)
		var sum, count float64
		for _, s := range w.srvs {
			h, _ := s.Registry().Snapshot()["scorpion_worker_shard_seconds"].(map[string]any)
			if v, ok := h["_"].(map[string]any); ok {
				sum += toFloat(v["sum"])
				count += toFloat(v["count"])
			}
		}
		if count > 0 {
			mean := 0.0
			for _, r := range rtts {
				mean += r
			}
			mean /= float64(len(rtts))
			layers["dispatch.overhead_ms_per_shard"] = mean - 1000*sum/count
		}
	}
	layers["relation.load_ms"] = ms(w.sets[0].ds.loadTime)
	return probeQuery(w.sets[0].ds.Table, layers)
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case uint64:
		return float64(x)
	case int:
		return float64(x)
	case int64:
		return float64(x)
	}
	return 0
}
