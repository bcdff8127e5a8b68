package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"
)

func testServer(t *testing.T, failureRate float64, cfg Config) *Server {
	t.Helper()
	eng, net := testEngine(t, failureRate)
	srv, err := NewServer(eng, Model{Name: net.Name, InShape: net.InShape}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

// TestNewServerShapelessModelStartsNoWorkers: the input contract is
// checked before the primary's pool starts, so a model with no input shape
// is refused without leaving workers behind.
func TestNewServerShapelessModelStartsNoWorkers(t *testing.T) {
	eng, net := testEngine(t, 0)
	before := settledGoroutines()
	if _, err := NewServer(eng, Model{Name: net.Name}, Config{Workers: 3}); err == nil {
		t.Fatal("NewServer accepted a model with no input shape")
	}
	if after := settledGoroutines(); after > before {
		t.Fatalf("a refused NewServer left %d goroutines running, %d before it", after, before)
	}
}

func postPredict(t *testing.T, srv *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewBufferString(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func imageJSON(seed uint64) string {
	x := testInput(seed)
	b, _ := json.Marshal(x.Data)
	return string(b)
}

func TestPredictEndpoint(t *testing.T) {
	srv := testServer(t, 0, Config{Workers: 2})
	rec := postPredict(t, srv, fmt.Sprintf(`{"image": %s, "top_k": 2, "seed": 5}`, imageJSON(1)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].TopK) != 2 || resp.Results[0].Seed != 5 {
		t.Fatalf("response malformed: %+v", resp)
	}
	if resp.Results[0].ECC.RowReads == 0 {
		t.Fatal("per-request ECC counts missing")
	}
	if resp.Scheme != "ABN-8" || resp.Workload != "tiny" {
		t.Fatalf("identity fields wrong: %+v", resp)
	}
}

func TestPredictBatchEndpoint(t *testing.T) {
	srv := testServer(t, 0, Config{Workers: 4, QueueDepth: 32})
	body := fmt.Sprintf(`{"images": [%s, %s, %s], "seed": 100}`,
		imageJSON(1), imageJSON(2), imageJSON(3))
	rec := postPredict(t, srv, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Seed != 100+uint64(i) {
			t.Fatalf("result %d seed %d, want %d", i, r.Seed, 100+uint64(i))
		}
	}
}

func TestPredictRejectsBadRequests(t *testing.T) {
	srv := testServer(t, 0, Config{Workers: 1})
	for name, body := range map[string]string{
		"empty":       `{}`,
		"bad json":    `{"image": [1,2`,
		"wrong shape": `{"image": [1, 2, 3]}`,
	} {
		if rec := postPredict(t, srv, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d, want 405", rec.Code)
	}
}

// TestFloodReturns429 floods the server past its queue depth while the only
// worker is parked and asserts the overflow request gets HTTP 429.
func TestFloodReturns429(t *testing.T) {
	eng, net := testEngine(t, 0)
	const depth = 2
	entered := make(chan struct{}, 64)
	gate := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: depth, QueueTimeout: time.Hour}
	cfg.dequeueHook = func() {
		entered <- struct{}{}
		<-gate
	}
	srv, err := NewServer(eng, Model{Name: net.Name, InShape: net.InShape}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	codes := make(chan int, depth+1)
	fire := func(seed uint64) {
		go func() {
			rec := postPredict(t, srv, fmt.Sprintf(`{"image": %s}`, imageJSON(seed)))
			codes <- rec.Code
		}()
	}
	fire(1)
	<-entered
	for i := 0; i < depth; i++ {
		fire(uint64(i + 2))
	}
	waitFor(t, func() bool { return srv.Scheduler().QueueLen() == depth })

	if rec := postPredict(t, srv, fmt.Sprintf(`{"image": %s}`, imageJSON(9))); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", rec.Code)
	}
	close(gate)
	for i := 0; i < depth+1; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("admitted request: status %d", c)
		}
	}
	if _, err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The rejection must be visible on the metrics endpoint.
	if got := scrapeMetric(t, srv, `mnn_requests_total{outcome="queue_full"}`); got < 1 {
		t.Fatalf("queue_full counter = %d, want >= 1", got)
	}
}

// TestMetricsECCCountersGrow scrapes /metrics under injected stuck-cell
// noise and asserts the corrected/detected ECU tallies increase as traffic
// flows.
func TestMetricsECCCountersGrow(t *testing.T) {
	srv := testServer(t, 0.02, Config{Workers: 2, QueueDepth: 16})
	if rec := postPredict(t, srv, fmt.Sprintf(`{"image": %s, "seed": 3}`, imageJSON(1))); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body)
	}
	corrected := scrapeMetric(t, srv, `mnn_ecc_reads_total{status="corrected"}`)
	detectedPlusCorrected := corrected + scrapeMetric(t, srv, `mnn_ecc_reads_total{status="detected"}`)
	if detectedPlusCorrected == 0 {
		t.Fatal("ECU saw no corrected/detected reads under 2% stuck cells")
	}
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"images": [%s, %s], "seed": %d}`, imageJSON(uint64(i)), imageJSON(uint64(i+10)), 50+10*i)
		if rec := postPredict(t, srv, body); rec.Code != http.StatusOK {
			t.Fatalf("predict %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	after := scrapeMetric(t, srv, `mnn_ecc_reads_total{status="corrected"}`) +
		scrapeMetric(t, srv, `mnn_ecc_reads_total{status="detected"}`)
	if after <= detectedPlusCorrected {
		t.Fatalf("ECC counters did not grow: %d -> %d", detectedPlusCorrected, after)
	}
	if scrapeMetric(t, srv, "mnn_images_total") != 7 {
		t.Fatalf("images counter wrong: %d", scrapeMetric(t, srv, "mnn_images_total"))
	}
	if scrapeMetric(t, srv, "mnn_request_seconds_count") != 4 {
		t.Fatalf("latency histogram count wrong: %d", scrapeMetric(t, srv, "mnn_request_seconds_count"))
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t, 0, Config{Workers: 1})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var h healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workload != "tiny" || h.Scheme != "ABN-8" || h.Bits != 2 {
		t.Fatalf("healthz payload: %+v", h)
	}
	// After shutdown the health check must fail so load balancers drain.
	if _, err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d, want 503", rec.Code)
	}
}

// TestReadyz: ready while serving, 503 with a draining flag once shutdown
// begins, and a full admission queue also flips readiness off.
func TestReadyz(t *testing.T) {
	srv := testServer(t, 0, Config{Workers: 1, QueueDepth: 4})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rec.Code)
	}
	var ready readyzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Draining || ready.QueueDepth != 4 {
		t.Fatalf("readyz payload: %+v", ready)
	}
	if _, err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || !ready.Draining {
		t.Fatalf("readyz payload after shutdown: %+v", ready)
	}
}

// TestReadyzWedgedQueue: an instance whose queue is full must advertise
// not-ready so load balancers route around it.
func TestReadyzWedgedQueue(t *testing.T) {
	eng, net := testEngine(t, 0)
	const depth = 2
	entered := make(chan struct{}, 64)
	gate := make(chan struct{})
	cfg := Config{Workers: 1, QueueDepth: depth, QueueTimeout: time.Hour}
	cfg.dequeueHook = func() {
		entered <- struct{}{}
		<-gate
	}
	srv, err := NewServer(eng, Model{Name: net.Name, InShape: net.InShape}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, depth+1)
	post := func(seed uint64) {
		rec := postPredict(t, srv, fmt.Sprintf(`{"image": %s}`, imageJSON(seed)))
		codes <- rec.Code
	}
	// Hold the first request in the worker before the rest arrive: posted
	// together, all three can reach the queue before the first dequeue, and
	// the third is refused 429 instead of wedging the queue.
	go post(1)
	<-entered
	for i := 1; i <= depth; i++ {
		go post(uint64(i + 1))
	}
	waitFor(t, func() bool { return srv.Scheduler().QueueLen() == depth })

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with wedged queue: %d, want 503", rec.Code)
	}

	close(gate)
	for i := 0; i <= depth; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("admitted request: %d", c)
		}
	}
	if _, err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// scrapeMetric fetches /metrics and returns the integer value of one series.
func scrapeMetric(t *testing.T, srv *Server, series string) uint64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + ` (\d+)$`)
	m := re.FindStringSubmatch(rec.Body.String())
	if m == nil {
		t.Fatalf("series %q not found in scrape:\n%s", series, rec.Body.String())
	}
	v, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPprofGated checks that the profiling handlers exist only when
// Config.Pprof opts in.
func TestPprofGated(t *testing.T) {
	off := testServer(t, 0, Config{Workers: 1})
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	off.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof off: GET /debug/pprof/ = %d, want 404", rec.Code)
	}

	on := testServer(t, 0, Config{Workers: 1, Pprof: true})
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof on: GET /debug/pprof/ = %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	on.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof on: GET /debug/pprof/cmdline = %d, want 200", rec.Code)
	}
}
