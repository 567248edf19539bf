package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/scorpiondb/scorpion/internal/obs"
)

// node is one span of an operation's trace, with times in milliseconds
// from the operation's start. Library operations get their tree from the
// obs root span the benchmark attaches to the call's context (the phase
// spans the program emits join it); HTTP operations graft the server's
// "trace" tree and the job's queue and run times under the client's span.
type node struct {
	Name     string         `json:"name"`
	Start    float64        `json:"start_ms"`
	Dur      float64        `json:"duration_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*node        `json:"children,omitempty"`
}

func (n *node) end() float64 { return n.Start + n.Dur }

// fromObs converts an obs snapshot, shifting every start by offset.
func fromObs(o *obs.Node, offset float64) *node {
	if o == nil {
		return nil
	}
	n := &node{Name: o.Name, Start: o.StartMS + offset, Dur: o.DurationMS, Attrs: o.Attrs}
	for i := range o.Children {
		n.Children = append(n.Children, fromObs(&o.Children[i], offset))
	}
	return n
}

// find returns every node named name in a depth-first walk.
func (n *node) find(name string, out []*node) []*node {
	if n == nil {
		return out
	}
	if n.Name == name {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = c.find(name, out)
	}
	return out
}

// layerOf names the layer a span's self time belongs to. The root is the
// benchmark's own span around the call: its self time is the part of the
// latency no layer span covers, reported as "unattributed".
var layerOf = map[string]string{
	"op":            "unattributed",
	"combine":       "shard.combine",
	"refine":        "shard.refine",
	"http":          "server.overhead",
	"explain":       "server.job",
	"jobs.queue":    "jobs.queue",
	"jobs.run":      "jobs.run",
	"plan":          "plan",
	"search":        "search",
	"rank":          "rank",
	"naive.batch":   "naive.batch",
	"dt.level":      "dt.level",
	"mc.generation": "mc.generation",
	"shard.search":  "shard.search",
	"dispatch":      "dispatch",
}

func layerName(span string) string {
	if l, ok := layerOf[span]; ok {
		return l
	}
	return span
}

// selfTimes splits the root's duration among layers. A span's self time
// is the part of its interval that none of its children covers; where
// several spans are innermost at once (parallel workers), the wall time
// is shared equally among them, so the self times of one operation
// always add up to its traced latency.
func selfTimes(root *node) map[string]float64 {
	type item struct {
		n      *node
		parent int
	}
	var items []item
	var walk func(n *node, parent int)
	walk = func(n *node, parent int) {
		items = append(items, item{n, parent})
		me := len(items) - 1
		for _, c := range n.Children {
			walk(c, me)
		}
	}
	walk(root, -1)
	cuts := []float64{root.Start, root.end()}
	for _, it := range items {
		cuts = append(cuts, clamp(it.n.Start, root), clamp(it.n.end(), root))
	}
	sort.Float64s(cuts)
	out := map[string]float64{}
	active := make([]bool, len(items))
	hasActiveChild := make([]bool, len(items))
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi <= lo {
			continue
		}
		for i := range items {
			n := items[i].n
			active[i] = n.Start <= lo && n.end() >= hi
			hasActiveChild[i] = false
		}
		for i := range items {
			// A child only counts while its parent is active too, so a
			// child that overruns its parent cannot steal time.
			if active[i] && items[i].parent >= 0 && active[items[i].parent] {
				hasActiveChild[items[i].parent] = true
			}
		}
		var inner []int
		for i := range items {
			if active[i] && !hasActiveChild[i] && (items[i].parent < 0 || active[items[i].parent]) {
				inner = append(inner, i)
			}
		}
		if len(inner) == 0 {
			continue
		}
		share := (hi - lo) / float64(len(inner))
		for _, i := range inner {
			out[layerName(items[i].n.Name)] += share
		}
	}
	return out
}

func clamp(t float64, root *node) float64 {
	return math.Max(root.Start, math.Min(root.end(), t))
}

// layerSelf is the mean self time (ms) of each layer over the traced
// operations that contain it, per class and over all classes.
type layerSelf struct {
	// ByClass maps class -> layer -> mean ms per operation of that class.
	// Each class's layers, unattributed included, add up to Latency.
	ByClass map[string]map[string]float64 `json:"by_class"`
	// Latency is each class's mean traced latency (ms).
	Latency map[string]float64 `json:"latency_ms"`
	// Where maps layer -> mean ms per operation over the operations whose
	// trees contain that layer.
	Where map[string]float64 `json:"where_present"`
}

func selfByLayer(ph *phase) layerSelf {
	ls := layerSelf{ByClass: map[string]map[string]float64{}, Latency: map[string]float64{}, Where: map[string]float64{}}
	count := map[string]int{}
	present := map[string]int{}
	for _, o := range ph.ops {
		if o.tree == nil {
			continue
		}
		count[o.class]++
		ls.Latency[o.class] += o.tree.Dur
		m := ls.ByClass[o.class]
		if m == nil {
			m = map[string]float64{}
			ls.ByClass[o.class] = m
		}
		for l, v := range selfTimes(o.tree) {
			m[l] += v
			ls.Where[l] += v
			present[l]++
		}
	}
	for c, m := range ls.ByClass {
		for l := range m {
			m[l] /= float64(count[c])
		}
		ls.Latency[c] /= float64(count[c])
	}
	for l := range ls.Where {
		ls.Where[l] /= float64(present[l])
	}
	return ls
}

// writeTrace stores a traced run's span trees and self-time tables.
func writeTrace(dir, workload string, seed int64, env map[string]any, r *result) (string, error) {
	var traced *phase
	for _, ph := range r.phases {
		if ph.traced {
			traced = ph
		}
	}
	if traced == nil {
		return "", fmt.Errorf("no traced phase")
	}
	type opTrace struct {
		ID    int    `json:"op_id"`
		Class string `json:"class"`
		Fail  string `json:"fail,omitempty"`
		Tree  *node  `json:"tree"`
	}
	var ops []opTrace
	for i, o := range traced.ops {
		ops = append(ops, opTrace{ID: i, Class: o.class, Fail: o.fail, Tree: o.tree})
	}
	layers := r.perLayer()
	doc := map[string]any{
		"workload":       workload,
		"environment":    env,
		"self_ms":        selfByLayer(traced),
		"unattributed":   layers["trace.unattributed_ms"],
		"overhead_ratio": layers["trace.overhead_ratio"],
		"layer_metrics":  layers,
		"operations":     ops,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
