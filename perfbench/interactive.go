package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/server"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// interactive: two HTTP clients over loopback replay seeded analyst
// sessions against an in-process server with its defaults (result cache,
// Explainer sessions, a scheduler budget of GOMAXPROCS). A session is one
// cold explain, four c-sweep explains, and three repeats of earlier
// requests; sessions alternate between DT over AVG and MC over SUM, and
// every request asks for all workers, so the clients compete for the
// budget. Each session has its own lambda, drawn from a range that belongs
// to its client, so no two sessions share a cache key and the cache hits
// do not depend on how the clients interleave.
const (
	interSets    = 8
	interClients = 2
)

var (
	interClasses = []string{"cold", "sweep", "hit"}
	sweepCs      = []float64{0.05, 0.1, 0.3, 0.5}
)

type interactive struct {
	b     *bench
	sets  []*dataset
	h     *httpServer
	loads []time.Duration
	// sessions counts the sessions each client has started.
	sessions [interClients]int

	mu   sync.Mutex
	reqs map[string]*interReq // by request key, filled as sessions run
}

// interReq is one distinct request of a session, with the library
// reference computed after timing.
type interReq struct {
	set     int
	session string
	seq     int // position among the session's distinct requests
	body    server.ExplainRequest
	ref     *scorpion.Result
	task    *influence.Task
}

type interOp struct {
	key  string
	http *httpOp
}

func (d *interOp) result() *httpOp { return d.http }

func newInteractive(b *bench) (workload, error) { return &interactive{b: b}, nil }

func (w *interactive) clients() int      { return interClients }
func (w *interactive) classes() []string { return interClasses }
func (w *interactive) close()            { w.h.close() }

func (w *interactive) setup() error {
	w.sets, w.loads = nil, nil
	w.reqs = map[string]*interReq{}
	w.sessions = [interClients]int{}
	w.h = startServer()
	for i := 0; i < interSets; i++ {
		ds, err := loadSynth(synth.Config{Dims: 2, TuplesPerGroup: 2000, Groups: 10, OutlierGroups: 5, Seed: subSeed(w.b.seed, "synth2d", i)})
		if err != nil {
			return err
		}
		d, err := w.h.upload(fmt.Sprintf("t%d", i), ds.csv)
		if err != nil {
			return err
		}
		w.sets = append(w.sets, ds)
		w.loads = append(w.loads, d)
	}
	// Warm-up: one session of each kind on keys no timed session uses.
	for kind := 0; kind < 2; kind++ {
		for _, r := range w.session(-1, kind) {
			body, _ := json.Marshal(r.body)
			status, data, err := w.h.call(http.MethodPost, "/explain", "", body)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("warm-up explain: status %d, %v: %s", status, err, data)
			}
		}
	}
	return nil
}

func (w *interactive) prepare() error { return nil }

// session returns the eight requests of session s of a client (client -1
// is the warm-up): each request's class, key, set and body.
func (w *interactive) session(client, s int) []struct {
	class, key string
	interReq
} {
	rng := rngFor(w.b.seed, fmt.Sprintf("session-%d", client), s)
	// Both kinds of session visit every set; the clients start half the
	// sets apart.
	set := (s/2 + (client+1)*interSets/2) % interSets
	ds := w.sets[set]
	dt := (s+client)%2 == 0
	// Client c draws lambda from its own band, so keys are disjoint.
	lambda := 0.3 + 0.1*float64(client+1) + 0.1*rng.Float64()
	base := server.ExplainRequest{
		Table:      fmt.Sprintf("t%d", set),
		SQL:        sqlFor("sum"),
		Outliers:   ds.OutlierKeys,
		HoldOuts:   ds.HoldOutKeys,
		Attributes: ds.DimNames(),
		Algorithm:  "mc",
		Lambda:     &lambda,
		Workers:    -1,
	}
	if dt {
		base.SQL, base.Algorithm = sqlFor("avg"), "dt"
	}
	cs := append([]float64{scorpion.DefaultC}, sweepCs...)
	perm := rng.Perm(len(sweepCs))
	out := make([]struct {
		class, key string
		interReq
	}, 0, 8)
	session := fmt.Sprintf("c%d/s%d", client, s)
	add := func(class string, idx int) {
		b := base
		c := cs[idx]
		b.C = &c
		out = append(out, struct {
			class, key string
			interReq
		}{class, fmt.Sprintf("%s/r%d", session, idx), interReq{set: set, session: session, seq: len(out), body: b}})
	}
	add("cold", 0)
	for _, p := range perm {
		add("sweep", p+1)
	}
	for _, k := range rng.Perm(5)[:3] {
		add("hit", k)
	}
	return out
}

func (w *interactive) unit(ph *phase, client int) error {
	s := w.sessions[client]
	w.sessions[client]++
	for i, r := range w.session(client, s) {
		body, err := json.Marshal(r.body)
		if err != nil {
			return err
		}
		w.mu.Lock()
		if _, ok := w.reqs[r.key]; !ok {
			req := r.interReq
			w.reqs[r.key] = &req
		}
		w.mu.Unlock()
		reqID := fmt.Sprintf("%s/op%d", r.key, i)
		o, hr := w.h.timedExplain(ph, r.class, reqID, body)
		o.set, o.data = r.set, &interOp{key: r.key, http: hr}
	}
	return nil
}

func (w *interactive) check(ph *phase, layers map[string]float64) error {
	if err := w.references(); err != nil {
		return err
	}
	var sweeps, reused float64
	for _, o := range ph.ops {
		d, ok := o.data.(*interOp)
		if !ok {
			continue
		}
		if msg := d.http.failure(); msg != "" {
			ph.fail(o, "%s", msg)
			continue
		}
		r := w.reqs[d.key]
		if msg := diffAnswers(d.http.resp.answers(), libAnswers(r.ref)); msg != "" {
			ph.fail(o, "answer differs from the library reference: %s", msg)
		}
		// Repeats are answered from the cache and only repeats are: the
		// keys are disjoint, so this holds however the clients interleave.
		if d.http.resp.Cached != (o.class == "hit") {
			ph.fail(o, "cached=%v for a %s request", d.http.resp.Cached, o.class)
		}
		// The served top predicate, parsed back from its rendering (bounds
		// rounded to four digits), scored against the planted rows.
		if served := d.http.resp.Explanations; len(served) > 0 {
			ds := w.sets[r.set]
			p, err := parseWhere(ds.Table, served[0].Where)
			if err != nil {
				ph.fail(o, "%v", err)
				continue
			}
			o.f1, o.hasF1 = topF1(p, ds.Table, r.task, ds.OuterRows), true
		}
		// A DT session's sweeps, and only they, reuse its partitioning:
		// the session is this client's alone, so it is never busy.
		wantReuse := o.class == "sweep" && r.body.Algorithm == "dt"
		if o.class != "hit" && d.http.resp.Reused != wantReuse {
			ph.fail(o, "reused_partition=%v for a %s %s request", d.http.resp.Reused, r.body.Algorithm, o.class)
		}
		if o.class == "sweep" {
			sweeps++
			if d.http.resp.Reused {
				reused++
			}
		}
	}
	if !ph.traced {
		return nil
	}
	if sweeps > 0 {
		layers["session.reuse_ratio"] = reused / sweeps
	}
	hits, misses, inval, err := w.h.cacheStats()
	if err != nil {
		return err
	}
	if hits+misses > 0 {
		layers["cache.hit_ratio"] = hits / (hits + misses)
	}
	layers["cache.invalidations"] = inval
	serverLayers(w.h, ph, layers)
	var loads []float64
	for _, d := range w.loads {
		loads = append(loads, ms(d))
	}
	layers["relation.load_ms"] = median(loads)
	return probeQuery(w.sets[0].Table, layers)
}

// references computes, after timing, the library answer to every distinct
// request not yet checked. An MC request's reference is a one-shot
// Explain. A DT session's requests are replayed, in the order the session
// sent them, through one library Explainer: that is the reuse unit the
// server's sessions are, and its documented §8.3.3 rule seeds a run at a
// lower c with the merged results of an earlier run at a higher c, so a
// sweep's answer depends on the session's earlier requests and a one-shot
// Explain is only its reference when no earlier request had a higher c.
func (w *interactive) references() error {
	sessions := map[string][]*interReq{}
	for _, r := range w.reqs {
		if r.ref == nil {
			sessions[r.session] = append(sessions[r.session], r)
		}
	}
	for _, rs := range sessions {
		sort.Slice(rs, func(i, j int) bool { return rs[i].seq < rs[j].seq })
		var exp *scorpion.Explainer
		if rs[0].body.Algorithm == "dt" {
			var err error
			if exp, err = scorpion.NewExplainer(w.libRequest(rs[0])); err != nil {
				return fmt.Errorf("library explainer: %w", err)
			}
			exp.Configure(2, nil, 0)
		}
		for _, r := range rs {
			req := w.libRequest(r)
			var err error
			if exp != nil {
				r.ref, err = exp.ExplainC(req.ResolvedC())
			} else {
				r.ref, err = scorpion.ExplainContext(context.Background(), req)
			}
			if err != nil {
				return fmt.Errorf("library reference: %w", err)
			}
			r.task, _, err = groupTask(req.Table, req.SQL, req.Outliers, req.HoldOuts, req.ResolvedLambda(), req.ResolvedC())
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// libRequest is the library form of a session request.
func (w *interactive) libRequest(r *interReq) *scorpion.Request {
	ds := w.sets[r.set]
	req := &scorpion.Request{
		Table:      ds.Table,
		SQL:        r.body.SQL,
		Outliers:   r.body.Outliers,
		HoldOuts:   r.body.HoldOuts,
		Attributes: r.body.Attributes,
		Direction:  scorpion.TooHigh,
		Algorithm:  scorpion.MC,
		Workers:    2,
	}
	if r.body.Algorithm == "dt" {
		req.Algorithm = scorpion.DT
	}
	req.SetLambda(*r.body.Lambda)
	req.SetC(*r.body.C)
	return req
}

// probeQuery times RunQuery on a workload table and sizes its group
// provenance.
func probeQuery(tbl *scorpion.Table, layers map[string]float64) error {
	var runs []float64
	var provBytes float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		qr, err := scorpion.RunQuery(tbl, sqlFor("sum"))
		runs = append(runs, ms(time.Since(start)))
		if err != nil {
			return err
		}
		provBytes = 0
		for _, row := range qr.Rows {
			provBytes += float64(row.Group.MemBytes())
		}
	}
	layers["query.run_ms"] = median(runs)
	layers["relation.provenance_bytes_per_row"] = provBytes / float64(tbl.NumRows())
	return nil
}
