package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// subSeed derives an independent seed for one named input of a run, so
// adding an input never shifts the others.
func subSeed(seed int64, name string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, name, i)
	return int64(h.Sum64() >> 1)
}

func rngFor(seed int64, name string, i int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, name, i)))
}

// dataset is a synthetic table with its planted ground truth, loaded
// through the public CSV path.
type dataset struct {
	*synth.Dataset
	csv []byte
	// loadTime is how long scorpion.ReadCSV took to load the table.
	loadTime time.Duration
}

// loadSynth generates a SYNTH dataset and reloads its table through
// scorpion.ReadCSV, the load path a library user has. Row order is kept,
// so the generator's ground-truth RowSets still index the loaded table.
func loadSynth(cfg synth.Config) (*dataset, error) {
	ds := synth.Generate(cfg)
	var buf bytes.Buffer
	if err := scorpion.WriteCSV(&buf, ds.Table); err != nil {
		return nil, err
	}
	start := time.Now()
	tbl, err := scorpion.ReadCSV(bytes.NewReader(buf.Bytes()), scorpion.CSVOptions{})
	if err != nil {
		return nil, fmt.Errorf("load synth table: %w", err)
	}
	d := &dataset{Dataset: ds, csv: buf.Bytes(), loadTime: time.Since(start)}
	d.Table = tbl
	return d, nil
}

func sqlFor(agg string) string {
	return fmt.Sprintf("SELECT %s(v), g FROM synth GROUP BY g", agg)
}

// answer is one ranked explanation as either path reports it.
type answer struct {
	Where     string
	Influence float64
}

func libAnswers(res *scorpion.Result) []answer {
	out := make([]answer, len(res.Explanations))
	for i, e := range res.Explanations {
		out[i] = answer{e.Where, e.Influence}
	}
	return out
}

// sameFloat compares influences up to rounding in the last digits: the
// parallel and serial paths may add the same terms in another order.
func sameFloat(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// diffAnswers describes the first difference between two ranked answer
// lists, or returns "" when they are equal.
func diffAnswers(got, want []answer) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d explanations, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Where != want[i].Where {
			return fmt.Sprintf("rank %d is %q, want %q", i+1, got[i].Where, want[i].Where)
		}
		if !sameFloat(got[i].Influence, want[i].Influence) {
			return fmt.Sprintf("rank %d influence %v, want %v", i+1, got[i].Influence, want[i].Influence)
		}
	}
	return ""
}

// groupTask builds the influence task of a GROUP BY query with the given
// labels (hold-outs = every other group when holdOuts is nil), the way a
// Request with those labels does.
func groupTask(tbl *relation.Table, sql string, outliers, holdOuts []string, lambda, c float64) (*influence.Task, *query.Result, error) {
	q, err := query.FromSQL(tbl, sql)
	if err != nil {
		return nil, nil, err
	}
	res, err := q.Run()
	if err != nil {
		return nil, nil, err
	}
	task := &influence.Task{Table: tbl, Agg: q.Agg, AggCol: q.AggCol, Lambda: lambda, C: c}
	isOut := map[string]bool{}
	for _, k := range outliers {
		row, ok := res.Lookup(k)
		if !ok {
			return nil, nil, fmt.Errorf("no group %q", k)
		}
		isOut[k] = true
		task.Outliers = append(task.Outliers, influence.Group{Key: k, Rows: row.Group, Direction: influence.TooHigh})
	}
	if holdOuts == nil {
		for _, row := range res.Rows {
			if !isOut[row.Key] {
				task.HoldOuts = append(task.HoldOuts, influence.Group{Key: row.Key, Rows: row.Group})
			}
		}
	}
	for _, k := range holdOuts {
		row, ok := res.Lookup(k)
		if !ok {
			return nil, nil, fmt.Errorf("no group %q", k)
		}
		task.HoldOuts = append(task.HoldOuts, influence.Group{Key: k, Rows: row.Group})
	}
	return task, res, nil
}

// topF1 scores a top predicate against the planted outer-cube rows within
// the outlier groups (§8.2).
func topF1(p predicate.Predicate, tbl *relation.Table, task *influence.Task, truth *relation.RowSet) float64 {
	return eval.Score(p, tbl, eval.OutlierUnion(task), truth).F1
}

// parseWhere turns an explanation's rendered predicate back into a
// Predicate over tbl. It reads the continuous range clauses Format
// writes ("lo <= col < hi", "lo <= col <= hi"); the synthetic tables have
// no discrete attributes to explain over.
func parseWhere(tbl *relation.Table, where string) (predicate.Predicate, error) {
	if where == "true" {
		return predicate.True(), nil
	}
	var clauses []predicate.Clause
	for _, part := range strings.Split(where, " and ") {
		f := strings.Fields(part)
		if len(f) != 5 || f[1] != "<=" || (f[3] != "<" && f[3] != "<=") {
			return predicate.Predicate{}, fmt.Errorf("cannot parse clause %q", part)
		}
		lo, err1 := strconv.ParseFloat(f[0], 64)
		hi, err2 := strconv.ParseFloat(f[4], 64)
		col, ok := tbl.Schema().Index(f[2])
		if err1 != nil || err2 != nil || !ok {
			return predicate.Predicate{}, fmt.Errorf("cannot parse clause %q", part)
		}
		clauses = append(clauses, predicate.NewRangeClause(col, f[2], lo, hi, f[3] == "<="))
	}
	return predicate.New(clauses...)
}
