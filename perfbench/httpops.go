package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/scorpiondb/scorpion/internal/catalog"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/server"
)

// maxConns bounds the loopback connections the benchmark opens to one
// server: the load comes from at most two clients.
const maxConns = 2

// httpServer is an in-process internal/server with its defaults, served
// over loopback.
type httpServer struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startServer() *httpServer {
	srv := server.NewCatalog(catalog.New(), nil)
	ts := httptest.NewServer(srv)
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &httpServer{srv: srv, ts: ts, client: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (h *httpServer) close() {
	if h == nil {
		return
	}
	h.client.CloseIdleConnections()
	h.ts.Close()
	h.srv.Close()
}

// call sends one request and reads the whole response.
func (h *httpServer) call(method, path, reqID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// explainResp is the part of a POST /explain response the checks read.
type explainResp struct {
	Explanations []struct {
		Where     string  `json:"where"`
		Influence float64 `json:"influence"`
	} `json:"explanations"`
	Cached          bool        `json:"cached"`
	Reused          bool        `json:"reused_partition"`
	Refreshed       bool        `json:"refreshed"`
	Interrupted     bool        `json:"interrupted"`
	InterruptReason string      `json:"interrupt_reason"`
	Trace           []*obs.Node `json:"trace"`
}

func (e *explainResp) answers() []answer {
	out := make([]answer, len(e.Explanations))
	for i, x := range e.Explanations {
		out[i] = answer{x.Where, x.Influence}
	}
	return out
}

// httpOp is one timed HTTP call with its outcome.
type httpOp struct {
	status int
	body   []byte
	err    error
	resp   *explainResp
	queued time.Duration
	ran    time.Duration
	hasJob bool
}

func (r *httpOp) result() *httpOp { return r }

// failure names why an HTTP explain failed, or "".
func (r *httpOp) failure() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status == http.StatusTooManyRequests:
		return "429 too many requests"
	case r.status < 200 || r.status > 299:
		return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	case r.resp != nil && r.resp.Interrupted:
		return "search interrupted: " + r.resp.InterruptReason
	}
	return ""
}

// explain sends one POST /explain and decodes the response.
func (h *httpServer) explain(reqID string, body []byte) *httpOp {
	r := &httpOp{}
	r.status, r.body, r.err = h.call(http.MethodPost, "/explain", reqID, body)
	if r.err == nil {
		var er explainResp
		if err := json.Unmarshal(r.body, &er); err != nil && r.status == http.StatusOK {
			r.err = fmt.Errorf("decode response: %w", err)
		}
		r.resp = &er
	}
	return r
}

// timedExplain runs one explain as a closed-loop step. When traced, it
// records the client's span and grafts the job's queue wait, run time and
// the server's own span tree under it.
func (h *httpServer) timedExplain(ph *phase, class, reqID string, body []byte) (*op, *httpOp) {
	var root, span *obs.Span
	if ph.traced {
		root = obs.NewSpan("op")
		span = root.Child("http")
	}
	start := time.Now()
	r := h.explain(reqID, body)
	lat := time.Since(start)
	span.End()
	root.End()
	o := &op{class: class, latency: lat, data: r}
	if root != nil {
		h.lookupJob(reqID, r)
		o.tree = fromObs(root.Snapshot(), 0)
		graftServer(o.tree.Children[0], r)
	}
	return ph.record(o), r
}

// lookupJob fills the job's queue wait and run time from the scheduler's
// job views, matched by request ID. Cache hits run no job.
func (h *httpServer) lookupJob(reqID string, r *httpOp) {
	if reqID == "" {
		return
	}
	for _, v := range h.srv.Scheduler().Jobs() {
		if v.RequestID == reqID {
			r.queued, r.ran, r.hasJob = v.QueuedFor, v.RanFor, true
			return
		}
	}
}

// graftServer places the job's queue wait and run, and the server's
// explain span tree, inside the client's http span. Only durations are
// known server-side, so the job is centred in the http span; the http
// span's self time is then the serving overhead: decoding, routing,
// response encoding and loopback transfer.
func graftServer(httpNode *node, r *httpOp) {
	if !r.hasJob {
		return
	}
	queued, ran := ms(r.queued), ms(r.ran)
	if total := queued + ran; total > httpNode.Dur {
		// Server clocks ran inside the call; scale away rounding overruns.
		f := httpNode.Dur / total
		queued, ran = queued*f, ran*f
	}
	at := httpNode.Start + math.Max(0, httpNode.Dur-queued-ran)/2
	q := &node{Name: "jobs.queue", Start: at, Dur: queued}
	run := &node{Name: "jobs.run", Start: at + queued, Dur: ran}
	if r.resp != nil && len(r.resp.Trace) > 0 && r.resp.Trace[0] != nil {
		ex := fromObs(r.resp.Trace[0], run.Start)
		if ex.Dur > run.Dur {
			ex.Dur = run.Dur
		}
		run.Children = []*node{ex}
	}
	httpNode.Children = append(httpNode.Children, q, run)
}

// cacheStats reads the result cache's counters through GET /cache.
func (h *httpServer) cacheStats() (hits, misses, invalidations float64, err error) {
	status, data, err := h.call(http.MethodGet, "/cache", "", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("GET /cache: status %d", status)
	}
	var doc struct {
		Results struct {
			Hits          float64 `json:"hits"`
			Misses        float64 `json:"misses"`
			Invalidations float64 `json:"invalidations"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, 0, 0, err
	}
	return doc.Results.Hits, doc.Results.Misses, doc.Results.Invalidations, nil
}

// upload loads a CSV table through POST /tables.
func (h *httpServer) upload(name string, csv []byte) (time.Duration, error) {
	start := time.Now()
	status, data, err := h.call(http.MethodPost, "/tables?name="+name, "", csv)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if status != http.StatusCreated {
		return d, fmt.Errorf("upload %s: status %d: %s", name, status, bytes.TrimSpace(data))
	}
	return d, nil
}

// serverLayers adds the serving-side metrics every HTTP workload reports
// from its traced phase.
func serverLayers(h *httpServer, ph *phase, layers map[string]float64) {
	var runs, bytesOut []float64
	for _, o := range ph.ops {
		d, ok := o.data.(interface{ result() *httpOp })
		if !ok || d.result() == nil || d.result().resp == nil {
			continue
		}
		r := d.result()
		bytesOut = append(bytesOut, float64(len(r.body)))
		if r.hasJob {
			runs = append(runs, ms(r.ran))
		}
	}
	if len(runs) > 0 {
		layers["jobs.run_ms"] = median(runs)
	}
	if len(bytesOut) > 0 {
		layers["server.response_bytes"] = median(bytesOut)
	}
	layers["jobs.rejected"] = counter(h.srv.Registry().Snapshot(), "scorpion_jobs_rejected_total")
}
