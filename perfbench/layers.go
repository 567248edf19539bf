package main

// layerMetrics is every per-layer metric a traced run prints, in the
// order of BENCHMARK.json. A metric of a layer the workload does not
// exercise reads 0; perfbench/meta.json says which workload exercises
// each one and which end-to-end metric it should move.
var layerMetrics = []struct{ name, unit string }{
	{"dt_p50_ms", "ms"},
	{"mc_p50_ms", "ms"},
	{"naive_p50_ms", "ms"},
	{"anytime_p50_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"sweep_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"fresh_p50_ms", "ms"},
	{"sharded_p50_ms", "ms"},
	{"remote_p50_ms", "ms"},
	{"error_rate", "ratio"},
	{"relation.load_ms", "ms"},
	{"relation.append_ms", "ms"},
	{"relation.provenance_bytes_per_row", "B/row"},
	{"query.run_ms", "ms"},
	{"predicate.eval_ns_per_row", "ns/row"},
	{"influence.calls.dt", "count"},
	{"influence.calls.mc", "count"},
	{"influence.calls.naive", "count"},
	{"influence.calls.anytime", "count"},
	{"influence.ns_per_call.blackbox", "ns"},
	{"influence.ns_per_call.incremental", "ns"},
	{"influence.memo_hit_ratio", "ratio"},
	{"plan.ms", "ms"},
	{"search.ms", "ms"},
	{"naive.batch_ms", "ms"},
	{"dt.level_ms", "ms"},
	{"mc.generation_ms", "ms"},
	{"rank.ms", "ms"},
	{"search.candidates", "count"},
	{"search.cpu_util", "ratio"},
	{"merge.ms", "ms"},
	{"estimate.pruned_ratio", "ratio"},
	{"shard.search_ms_max", "ms"},
	{"shard.straggler_ratio", "ratio"},
	{"shard.combine_ms", "ms"},
	{"shard.refine_ms", "ms"},
	{"dispatch.rtt_ms_per_shard", "ms"},
	{"dispatch.overhead_ms_per_shard", "ms"},
	{"wire.task_bytes_per_shard", "B"},
	{"wire.result_bytes_per_shard", "B"},
	{"dispatch.fallback_ratio", "ratio"},
	{"dispatch.retries", "count"},
	{"stream.warm_ratio", "ratio"},
	{"stream.cold_ms", "ms"},
	{"session.reuse_ratio", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.invalidations", "count"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.queue_wait_tail_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.rejected", "count"},
	{"server.overhead_ms", "ms"},
	{"server.job_ms", "ms"},
	{"server.response_bytes", "B"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ms", "ms"},
}

// selfMetric maps the per-layer metrics that are span self times to the
// layer whose mean self time (over the operations containing it) they
// report.
var selfMetric = map[string]string{
	"plan.ms":               "plan",
	"search.ms":             "search",
	"naive.batch_ms":        "naive.batch",
	"dt.level_ms":           "dt.level",
	"mc.generation_ms":      "mc.generation",
	"rank.ms":               "rank",
	"shard.combine_ms":      "shard.combine",
	"shard.refine_ms":       "shard.refine",
	"server.overhead_ms":    "server.overhead",
	"server.job_ms":         "server.job",
	"trace.unattributed_ms": "unattributed",
}

// perLayer assembles the traced run's metrics: class medians from the
// untraced phase, self times and shard/queue spans from the traced phase,
// runtime counters per operation, and what the workload's check added.
func (r *result) perLayer() map[string]metric {
	untraced, traced := r.phases[0], r.phases[len(r.phases)-1]
	v := map[string]float64{}
	for k, x := range r.layers {
		v[k] = x
	}
	for _, c := range r.classes {
		if l := untraced.latencies(c); len(l) > 0 {
			v[c+"_p50_ms"] = median(l)
		}
	}
	attempted, failed := 0, 0
	for _, ph := range r.phases {
		attempted += len(ph.ops)
		failed += ph.failed()
	}
	if attempted > 0 {
		v["error_rate"] = float64(failed) / float64(attempted)
	}
	self := selfByLayer(traced)
	for m, layer := range selfMetric {
		v[m] = self.Where[layer]
	}
	// Shards search in parallel, so the slowest sets the pace: report the
	// slowest shard's search and how far it is above the mean.
	var maxes, ratios []float64
	var queue []float64
	for _, o := range traced.ops {
		if o.tree == nil {
			continue
		}
		// A local shard's search is its shard.search span; a dispatched
		// shard's is the round trip (its shard.search span is recorded
		// only once the answer is back).
		var shards []*node
		for _, s := range o.tree.find("shard.search", nil) {
			if remote, _ := s.Attrs["remote"].(bool); !remote {
				shards = append(shards, s)
			}
		}
		shards = o.tree.find("dispatch", shards)
		if len(shards) > 0 {
			mx, sum := 0.0, 0.0
			for _, s := range shards {
				sum += s.Dur
				if s.Dur > mx {
					mx = s.Dur
				}
			}
			maxes = append(maxes, mx)
			if sum > 0 {
				ratios = append(ratios, mx/(sum/float64(len(shards))))
			}
		}
		for _, q := range o.tree.find("jobs.queue", nil) {
			queue = append(queue, q.Dur)
		}
	}
	if len(maxes) > 0 {
		v["shard.search_ms_max"] = median(maxes)
		v["shard.straggler_ratio"] = median(ratios)
	}
	if len(queue) > 0 {
		v["jobs.queue_wait_p50_ms"] = median(queue)
		v["jobs.queue_wait_tail_ms"], _, _ = tail(queue)
	}
	if n := float64(len(traced.ops)); n > 0 {
		v["runtime.alloc_bytes_per_op"] = float64(traced.allocBytes) / n
		v["runtime.gc_cycles_per_op"] = float64(traced.gcCycles) / n
		v["runtime.gc_pause_ms"] = ms(traced.gcPause) / n
	}
	if wall := traced.end.Sub(traced.start); wall > 0 {
		v["search.cpu_util"] = float64(traced.cpu) / float64(wall)
	}
	if u := untraced.opsPerSec(); u > 0 {
		v["trace.overhead_ratio"] = traced.opsPerSec() / u
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
