package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/server"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// append-refresh: one HTTP client where writes sit beside reads. Each
// cycle (re)uploads a base table, then appends appendBatches batches of
// appendBatchRows rows, re-explaining MC over SUM after each. The batch
// count is fixed, not timed, so a faster build never explains a bigger
// table; it is sized so each cycle crosses the Refresher's 50% growth cap
// exactly once. Every write invalidates the result cache, so the work
// moves into the append path, the stream tracker and the Refresher.
// Cycles rotate over appendSets generated inputs.
//
// The attribute values are quantized to multiples of 0.5 on [0, 90] and
// both extremes occur in the outlier rows, so MC's 15-bin grid edges are
// multiples of 6: the rendered "where" of every served explanation then
// parses back into exactly the predicate the server scored, and the check
// can re-score it on the current snapshot.
const (
	appendSets      = 8
	appendGroups    = 10
	appendBasePer   = 800 // base rows per group
	appendBatchRows = 200
	appendBatches   = 24
	appendTable     = "stream"
)

var appendClasses = []string{"fresh", "reload"}

type appendRefresh struct {
	b        *bench
	h        *httpServer
	sets     []*appendSet
	loaded   bool
	capBatch int // 1-based batch whose explain crosses the growth cap
	cycles   int
	loads    []time.Duration
	// writes counts uploads and appends since the server started.
	writes int
}

// appendSet is one generated input: the upload and append bodies, the
// same batches as rows, the ground truth, and the check's reference state
// per batch count (built once: every cycle on the set repeats them).
type appendSet struct {
	ds        *synth.Dataset
	baseCSV   []byte
	batchCSV  [][]byte
	batchRows [][]relation.Row
	outer     []bool // ground-truth label of every row, base first
	base      *relation.Table
	snaps     map[int]*appendSnap
}

type appendSnap struct {
	tbl    *relation.Table
	task   *influence.Task
	scorer *influence.Scorer
	truth  *relation.RowSet
}

type appendOp struct {
	set    int
	batch  int // 1-based; 0 for a reload
	append time.Duration
	err    error
	http   *httpOp
}

func (d *appendOp) result() *httpOp { return d.http }

func newAppendRefresh(b *bench) (workload, error) { return &appendRefresh{b: b}, nil }

func (w *appendRefresh) clients() int      { return 1 }
func (w *appendRefresh) classes() []string { return appendClasses }
func (w *appendRefresh) close()            { w.h.close() }

func (w *appendRefresh) setup() error {
	w.sets = nil
	for i := 0; i < appendSets; i++ {
		s, err := newAppendSet(subSeed(w.b.seed, "append", i))
		if err != nil {
			return err
		}
		w.sets = append(w.sets, s)
	}
	w.h = startServer()
	w.loaded, w.cycles, w.loads, w.writes = false, 0, nil, 0
	// The first explain after an upload is a cold start at base+1 batch;
	// the cap forces the next cold run once growth exceeds half of that.
	rows0 := float64(appendGroups*appendBasePer + appendBatchRows)
	w.capBatch = int(math.Floor((0.5*rows0)/appendBatchRows)) + 2
	if w.capBatch > appendBatches {
		return fmt.Errorf("the growth cap is never crossed in %d batches", appendBatches)
	}
	// Warm-up: one whole cycle.
	return w.cycle(&phase{}, false)
}

// newAppendSet generates one input, quantizes its coordinates, and splits
// it into the base table (the first appendBasePer rows of every group)
// and the batches (the rest, interleaved across groups).
func newAppendSet(seed int64) (*appendSet, error) {
	per := appendBasePer + appendBatches*appendBatchRows/appendGroups
	ds := synth.Generate(synth.Config{Dims: 2, TuplesPerGroup: per, Groups: appendGroups, OutlierGroups: appendGroups / 2, Seed: seed})
	s := &appendSet{ds: ds, snaps: map[int]*appendSnap{}}
	t := ds.Table
	var base []relation.Row
	var extra [][]relation.Row
	var extraOuter [][]bool
	for g := 0; g < appendGroups; g++ {
		var ex []relation.Row
		var exo []bool
		pinned := 0
		for i := 0; i < per; i++ {
			r := g*per + i
			row := t.Row(r)
			for c := 2; c < len(row); c++ {
				row[c] = relation.F(math.Min(90, math.Round(row[c].Float()*1.8)/2))
			}
			outer := ds.OuterRows.Contains(r)
			// Pin the outlier rows' domain to [0, 90] with two unplanted
			// outlier-group rows, so the grid edges are fixed.
			if g == 0 && !outer && pinned < 2 {
				v := float64(pinned) * 90
				row[2], row[3] = relation.F(v), relation.F(v)
				pinned++
			}
			if i < appendBasePer {
				base = append(base, row)
				s.outer = append(s.outer, outer)
			} else {
				ex = append(ex, row)
				exo = append(exo, outer)
			}
		}
		extra = append(extra, ex)
		extraOuter = append(extraOuter, exo)
	}
	perGroup := appendBatchRows / appendGroups
	for b := 0; b < appendBatches; b++ {
		var batch []relation.Row
		for g := 0; g < appendGroups; g++ {
			batch = append(batch, extra[g][b*perGroup:(b+1)*perGroup]...)
			s.outer = append(s.outer, extraOuter[g][b*perGroup:(b+1)*perGroup]...)
		}
		s.batchRows = append(s.batchRows, batch)
		s.batchCSV = append(s.batchCSV, csvOf(t.Schema(), batch))
	}
	s.baseCSV = csvOf(t.Schema(), base)
	var err error
	if s.base, err = scorpion.ReadCSV(bytes.NewReader(s.baseCSV), scorpion.CSVOptions{}); err != nil {
		return nil, err
	}
	return s, nil
}

func csvOf(schema *relation.Schema, rows []relation.Row) []byte {
	var buf bytes.Buffer
	for i, name := range schema.Names() {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(name)
	}
	buf.WriteByte('\n')
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				buf.WriteByte(',')
			}
			if schema.Column(i).Kind == relation.Continuous {
				buf.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
			} else {
				buf.WriteString(v.Str())
			}
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func (w *appendRefresh) prepare() error { return nil }

func (w *appendRefresh) unit(ph *phase, _ int) error { return w.cycle(ph, true) }

// cycle reloads the next set's base table and runs all its batches;
// record=false runs it as the untimed warm-up.
func (w *appendRefresh) cycle(ph *phase, record bool) error {
	set := w.cycles % appendSets
	w.cycles++
	s := w.sets[set]
	rec := func(o *op) {
		if record {
			ph.record(o)
		}
	}
	start := time.Now()
	var root *obs.Span
	if ph.traced {
		root = obs.NewSpan("op")
	}
	if w.loaded {
		del := root.Child("table.delete")
		status, data, err := w.h.call(http.MethodDelete, "/tables/"+appendTable, "", nil)
		del.End()
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("delete table: status %d, %v: %s", status, err, data)
		}
	}
	up := root.Child("relation.load")
	d, err := w.h.upload(appendTable, s.baseCSV)
	up.End()
	root.End()
	if err != nil {
		return err
	}
	w.loaded = true
	w.writes++
	w.loads = append(w.loads, d)
	o := &op{class: "reload", set: set, latency: time.Since(start), data: &appendOp{set: set}}
	if root != nil {
		o.tree = fromObs(root.Snapshot(), 0)
	}
	rec(o)
	body, err := json.Marshal(server.ExplainRequest{
		Table:      appendTable,
		SQL:        sqlFor("sum"),
		Outliers:   s.ds.OutlierKeys,
		HoldOuts:   s.ds.HoldOutKeys,
		Attributes: s.ds.DimNames(),
		Algorithm:  "mc",
		Workers:    -1,
	})
	if err != nil {
		return err
	}
	for b := 1; b <= appendBatches; b++ {
		rec(w.fresh(ph, set, b, body))
	}
	return nil
}

// fresh is one operation: append batch b, then re-explain. Its latency
// runs from sending the batch to receiving the explanation.
func (w *appendRefresh) fresh(ph *phase, set, b int, body []byte) *op {
	var root *obs.Span
	if ph.traced {
		root = obs.NewSpan("op")
	}
	d := &appendOp{set: set, batch: b}
	start := time.Now()
	span := root.Child("relation.append")
	status, data, err := w.h.call(http.MethodPost, "/tables/"+appendTable+"/rows", "", w.sets[set].batchCSV[b-1])
	span.End()
	d.append = time.Since(start)
	w.writes++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("append: status %d: %s", status, bytes.TrimSpace(data))
	}
	d.err = err
	r := &httpOp{}
	reqID := ""
	if err == nil {
		reqID = fmt.Sprintf("append/%d/%d", w.cycles, b)
		span = root.Child("http")
		r = w.h.explain(reqID, body)
		span.End()
	}
	lat := time.Since(start)
	root.End()
	d.http = r
	o := &op{class: "fresh", set: set, latency: lat, data: d}
	if root != nil {
		w.h.lookupJob(reqID, r)
		o.tree = fromObs(root.Snapshot(), 0)
		if n := o.tree.find("http", nil); len(n) > 0 {
			graftServer(n[0], r)
		}
	}
	return o
}

// snap is the reference state of a set after b batches.
func (s *appendSet) snap(b int) (*appendSnap, error) {
	if sn, ok := s.snaps[b]; ok {
		return sn, nil
	}
	app := scorpion.AppenderFor(s.base)
	tbl := s.base
	for i := 0; i < b; i++ {
		var err error
		if tbl, err = app.Append(s.batchRows[i]); err != nil {
			return nil, err
		}
	}
	task, _, err := groupTask(tbl, sqlFor("sum"), s.ds.OutlierKeys, s.ds.HoldOutKeys, scorpion.DefaultLambda, scorpion.DefaultC)
	if err != nil {
		return nil, err
	}
	sc, err := influence.NewScorer(task)
	if err != nil {
		return nil, err
	}
	truth := relation.NewRowSet(tbl.NumRows())
	for r := 0; r < tbl.NumRows(); r++ {
		if s.outer[r] {
			truth.Add(r)
		}
	}
	sn := &appendSnap{tbl: tbl, task: task, scorer: sc, truth: truth}
	s.snaps[b] = sn
	return sn, nil
}

func (w *appendRefresh) check(ph *phase, layers map[string]float64) error {
	var appends, colds []float64
	for _, o := range ph.ops {
		d, ok := o.data.(*appendOp)
		if !ok || d.batch == 0 {
			continue
		}
		if d.err != nil {
			ph.fail(o, "%v", d.err)
			continue
		}
		if msg := d.http.failure(); msg != "" {
			ph.fail(o, "%s", msg)
			continue
		}
		appends = append(appends, ms(d.append))
		resp := d.http.resp
		wantCold := d.batch == 1 || d.batch == w.capBatch
		if resp.Refreshed == wantCold {
			ph.fail(o, "batch %d: refreshed=%v, want a %s run", d.batch, resp.Refreshed, map[bool]string{true: "cold", false: "warm"}[wantCold])
		}
		if wantCold {
			colds = append(colds, ms(o.latency-d.append))
		}
		if resp.Cached {
			ph.fail(o, "batch %d answered from the cache after a write", d.batch)
		}
		sn, err := w.sets[d.set].snap(d.batch)
		if err != nil {
			return err
		}
		for i, e := range resp.Explanations {
			p, err := parseWhere(sn.tbl, e.Where)
			if err != nil {
				ph.fail(o, "%v", err)
				break
			}
			if got := sn.scorer.Influence(p); !sameFloat(got, e.Influence) {
				ph.fail(o, "batch %d rank %d: served influence %v, exact re-score %v", d.batch, i+1, e.Influence, got)
				break
			}
			if i == 0 {
				o.f1, o.hasF1 = eval.Score(p, sn.tbl, eval.OutlierUnion(sn.task), sn.truth).F1, true
			}
		}
	}
	if !ph.traced {
		return nil
	}
	layers["relation.append_ms"] = median(appends)
	if len(colds) > 0 {
		layers["stream.cold_ms"] = median(colds)
	}
	snap := w.h.srv.Registry().Snapshot()
	warm := counter(snap, "scorpion_stream_warm_total")
	cold := counter(snap, "scorpion_stream_cold_total")
	if warm+cold > 0 {
		layers["stream.warm_ratio"] = warm / (warm + cold)
	}
	hits, misses, inval, err := w.h.cacheStats()
	if err != nil {
		return err
	}
	if hits+misses > 0 {
		layers["cache.hit_ratio"] = hits / (hits + misses)
	}
	// Per write: each upload or append sweeps the previous generation.
	layers["cache.invalidations"] = inval / float64(w.writes)
	serverLayers(w.h, ph, layers)
	var loads []float64
	for _, d := range w.loads {
		loads = append(loads, ms(d))
	}
	layers["relation.load_ms"] = median(loads)
	return probeQuery(w.sets[0].base, layers)
}
