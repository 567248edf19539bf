package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one closed-loop traffic mix. The bench calls setup
// setupReps times (closing in between), prepare once, then unit in a loop
// on each client goroutine until the phase's time is up, then check.
type workload interface {
	// setup generates the inputs from the seed, loads them through the
	// public load path, starts any servers, and runs one untimed warm-up
	// pass. It is what setup_s times.
	setup() error
	// prepare computes the answer references the checks compare against.
	// It is the benchmark's oracle, not the system's set-up, so setup_s
	// excludes it.
	prepare() error
	// clients is the number of concurrent closed-loop callers.
	clients() int
	// unit runs the next fixed unit of operations (a rotation, a session,
	// a cycle) for one client and records each operation in ph.
	unit(ph *phase, client int) error
	// check verifies the phase's answers after timing, failing operations
	// through ph.fail, and adds the layer metrics the workload measures
	// (traced runs only) to layers.
	check(ph *phase, layers map[string]float64) error
	// classes lists the operation classes in report order.
	classes() []string
	close()
}

// bench holds one run's flags.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// op is one recorded operation.
type op struct {
	class string
	// set is the input set the operation ran on, for workloads that cycle
	// through several generated datasets.
	set     int
	latency time.Duration
	// fail is why the operation counts as failed ("" = succeeded).
	fail string
	f1   float64
	// hasF1 marks operations whose answer was scored against ground truth.
	hasF1 bool
	// tree is the operation's span tree (traced phases only).
	tree *node
	// data is the workload's own record of the answer, for check.
	data any
}

// phase is one timed closed-loop phase.
type phase struct {
	traced bool
	start  time.Time
	end    time.Time
	until  time.Time

	mu  sync.Mutex
	ops []*op

	heapPeak   uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration
}

// record appends an operation; safe for concurrent clients.
func (ph *phase) record(o *op) *op {
	ph.mu.Lock()
	ph.ops = append(ph.ops, o)
	ph.mu.Unlock()
	return o
}

// fail marks an operation failed, keeping the first reason.
func (ph *phase) fail(o *op, format string, args ...any) {
	ph.mu.Lock()
	if o.fail == "" {
		o.fail = fmt.Sprintf(format, args...)
	}
	ph.mu.Unlock()
}

// expired reports whether the phase's time is up; units check it only
// between units, so every unit runs whole.
func (ph *phase) expired() bool { return !time.Now().Before(ph.until) }

// result is everything a run reports.
type result struct {
	setups  []time.Duration
	phases  []*phase // untraced first; a traced run adds a traced phase
	layers  map[string]float64
	classes []string
	Detail  map[string]any
}

// execute runs set-up, references, the timed phase(s) and the checks.
func (b *bench) execute(mk func(*bench) (workload, error)) (*result, error) {
	w, err := mk(b)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{layers: map[string]float64{}, classes: w.classes()}
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(start))
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	if !b.traced {
		res.phases = []*phase{b.runPhase(w, false, b.seconds)}
	} else {
		// The traced run measures the same workload untraced and traced
		// for half the time each, so trace.overhead_ratio compares like
		// with like inside one process.
		res.phases = []*phase{b.runPhase(w, false, b.seconds/2), b.runPhase(w, true, b.seconds/2)}
	}
	for _, ph := range res.phases {
		layers := res.layers
		if !ph.traced {
			layers = map[string]float64{} // layer metrics come from the traced phase
		}
		if err := w.check(ph, layers); err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
	}
	res.Detail = res.detail()
	return res, nil
}

// runPhase drives every client's closed loop for d, sampling the live
// heap and the runtime's allocation and GC counters around it.
func (b *bench) runPhase(w workload, traced bool, d time.Duration) *phase {
	ph := &phase{traced: traced}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go sampleHeap(stopHeap, heapDone)
	ph.start = time.Now()
	ph.until = ph.start.Add(d)
	var wg sync.WaitGroup
	errs := make([]error, w.clients())
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !ph.expired() {
				if err := w.unit(ph, c); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	ph.end = time.Now()
	close(stopHeap)
	ph.heapPeak = <-heapDone
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	for _, err := range errs {
		if err != nil {
			// A unit that cannot continue is one more failed operation,
			// not a crashed benchmark: the run still reports.
			ph.record(&op{class: "aborted", fail: err.Error()})
		}
	}
	return ph
}

// sampleHeap reports the peak live heap (as of each GC) between start and
// stop as the median, over one-second windows, of each window's peak: a
// single GC that happens to end mid-operation sets one window's peak, not
// the run's.
func sampleHeap(stop <-chan struct{}, done chan<- uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peaks []float64
	var peak uint64
	window := time.Now()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak {
			peak = v
		}
		if time.Since(window) >= time.Second {
			peaks = append(peaks, float64(peak))
			peak, window = 0, time.Now()
		}
		select {
		case <-stop:
			if len(peaks) == 0 || time.Since(window) >= time.Second/2 {
				peaks = append(peaks, float64(peak))
			}
			done <- uint64(median(peaks))
			return
		case <-tick.C:
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// --- statistics -----------------------------------------------------------

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail is the highest percentile of xs that still has at least ten
// samples above it: the value at rank n-11 (0-based) of the sorted
// samples, reported with its percentile. It is 0 with fewer than 11
// samples.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n < 11 {
		return 0, 0, n
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n), n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the latencies (ms) of ph's operations of class ("" =
// every class), failed ones included: a failed operation still took its
// time.
func (ph *phase) latencies(class string) []float64 {
	var out []float64
	for _, o := range ph.ops {
		if class == "" || o.class == class {
			out = append(out, ms(o.latency))
		}
	}
	return out
}

func (ph *phase) failed() int {
	n := 0
	for _, o := range ph.ops {
		if o.fail != "" {
			n++
		}
	}
	return n
}

// classP50 is the geometric mean of the median latencies of every
// (class, input set) pair, so that each class and each generated dataset
// weighs the same whatever its share of operations.
func (ph *phase) classP50() float64 {
	type key struct {
		class string
		set   int
	}
	lat := map[key][]float64{}
	for _, o := range ph.ops {
		k := key{o.class, o.set}
		lat[k] = append(lat[k], ms(o.latency))
	}
	logSum := 0.0
	for _, l := range lat {
		logSum += math.Log(median(l))
	}
	if len(lat) == 0 {
		return 0
	}
	return math.Exp(logSum / float64(len(lat)))
}

func (ph *phase) opsPerSec() float64 {
	return float64(len(ph.ops)) / ph.end.Sub(ph.start).Seconds()
}

// meanF1 averages the F1 of every (class, input set) pair's answers, so a
// run that happens to fit one more operation on an easy set does not move
// it.
func (ph *phase) meanF1() float64 {
	type key struct {
		class string
		set   int
	}
	sum, n := map[key]float64{}, map[key]float64{}
	for _, o := range ph.ops {
		if o.hasF1 {
			k := key{o.class, o.set}
			sum[k] += o.f1
			n[k]++
		}
	}
	if len(n) == 0 {
		return 0
	}
	total := 0.0
	for k := range n {
		total += sum[k] / n[k]
	}
	return total / float64(len(n))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (r *result) endToEnd() map[string]metric {
	ph := r.phases[0]
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	tv, _, _ := tail(ph.latencies(""))
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {ph.opsPerSec(), "1/s"},
		"latency_p50_ms":  {ph.classP50(), "ms"},
		"latency_tail_ms": {tv, "ms"},
		"top_f1":          {ph.meanF1(), "ratio"},
		"peak_heap_mb":    {float64(ph.heapPeak) / (1 << 20), "MB"},
	}
}

// detail is the human-readable breakdown printed before the result line:
// every class median with its sample count, the tail with its percentile,
// the failures, and the set-up samples.
func (r *result) detail() map[string]any {
	out := map[string]any{}
	for _, ph := range r.phases {
		name := "untraced"
		if ph.traced {
			name = "traced"
		}
		classes := map[string]any{}
		for _, c := range r.classes {
			l := ph.latencies(c)
			if len(l) == 0 {
				continue
			}
			classes[c] = map[string]any{"p50_ms": median(l), "n": len(l)}
		}
		tv, tp, n := tail(ph.latencies(""))
		var fails []string
		for _, o := range ph.ops {
			if o.fail != "" && len(fails) < 10 {
				fails = append(fails, o.class+": "+o.fail)
			}
		}
		out[name] = map[string]any{
			"classes":         classes,
			"latency_tail_ms": map[string]any{"value": tv, "percentile": tp, "samples": n},
			"ops":             len(ph.ops),
			"failed":          ph.failed(),
			"error_rate":      float64(ph.failed()) / math.Max(1, float64(len(ph.ops))),
			"first_failures":  fails,
			"seconds":         ph.end.Sub(ph.start).Seconds(),
		}
	}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	out["setup_s_samples"] = setups
	return out
}

// summary is the result line printed last: correct, attempted, failed
// and the metrics.
func (r *result) summary(traced bool) map[string]any {
	attempted, failed := 0, 0
	for _, ph := range r.phases {
		attempted += len(ph.ops)
		failed += ph.failed()
	}
	var m map[string]metric
	if traced {
		m = r.perLayer()
	} else {
		m = r.endToEnd()
	}
	return map[string]any{
		"correct":   failed == 0 && attempted > 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   m,
	}
}
