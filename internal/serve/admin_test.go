package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/accel"
)

// TestAdminDecodeRejectsMalformed pins the decode layer: operator typos and
// malformed bodies must fail loudly before any shard or model is touched.
func TestAdminDecodeRejectsMalformed(t *testing.T) {
	for name, body := range map[string]string{
		"unknown field":  `{"action":"drain","shard":1,"shrad":2}`,
		"bad action":     `{"action":"explode","shard":1}`,
		"negative shard": `{"action":"drain","shard":-1}`,
		"trailing junk":  `{"action":"drain","shard":1}{"action":"drain","shard":0}`,
		"bad json":       `{"action":`,
		"wrong type":     `{"action":"drain","shard":"one"}`,
		"empty":          ``,
	} {
		if _, err := decodeShardAdminRequest([]byte(body)); err == nil {
			t.Errorf("shard decode accepted %s: %s", name, body)
		}
	}
	for name, body := range map[string]string{
		"unknown field": `{"action":"load","model":"MLP2","shard":1}`,
		"bad action":    `{"action":"drop","model":"MLP2"}`,
		"missing model": `{"action":"load"}`,
		"empty model":   `{"action":"load","model":""}`,
		"bad json":      `[`,
	} {
		if _, err := decodeModelAdminRequest([]byte(body)); err == nil {
			t.Errorf("model decode accepted %s: %s", name, body)
		}
	}
	if req, err := decodeShardAdminRequest([]byte(`{"action":"drain","shard":3,"model":"x"}`)); err != nil || req.Shard != 3 || req.Model != "x" {
		t.Errorf("valid shard request refused: %+v, %v", req, err)
	}
	if req, err := decodeModelAdminRequest([]byte(`{"action":"evict","model":"MLP2"}`)); err != nil || req.Model != "MLP2" {
		t.Errorf("valid model request refused: %+v, %v", req, err)
	}
}

// TestAdminRoutesGated: without AdminConfig.Enabled the operator surface
// does not exist.
func TestAdminRoutesGated(t *testing.T) {
	srv := testServer(t, 0, Config{Workers: 1})
	for _, path := range []string{"/admin/shards", "/admin/models"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("admin off: GET %s = %d, want 404", path, rec.Code)
		}
	}
}

// TestAdminShardsErrors pins the handler's error contract: bad bodies 400,
// unknown models 404, out-of-range shards 400, actions on an unsharded pool
// 409, and wrong methods 405.
func TestAdminShardsErrors(t *testing.T) {
	srv := shardAdminServer(t, 2)
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"unknown field":  {`{"action":"drain","shard":0,"oops":1}`, http.StatusBadRequest},
		"bad action":     {`{"action":"nuke","shard":0}`, http.StatusBadRequest},
		"out of range":   {`{"action":"drain","shard":7}`, http.StatusBadRequest},
		"unknown model":  {`{"action":"drain","shard":0,"model":"nope"}`, http.StatusNotFound},
		"repair serving": {`{"action":"repair","shard":0}`, http.StatusConflict},
	} {
		if rec := postAdmin(t, srv, "/admin/shards", tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.want, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/admin/shards", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", rec.Code)
	}

	// Shard actions on an unsharded pool are a topology conflict, not a
	// silent no-op.
	eng, net := testEngine(t, 0)
	flat, err := NewServer(eng, Model{Name: net.Name, InShape: net.InShape},
		Config{Workers: 1, Admin: AdminConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flat.Shutdown(context.Background()) })
	if rec := postAdmin(t, flat, "/admin/shards", `{"action":"drain","shard":0}`); rec.Code != http.StatusConflict {
		t.Errorf("unsharded drain: status %d, want 409 (%s)", rec.Code, rec.Body)
	}
	// The status view still answers, with zero rows.
	grec := httptest.NewRecorder()
	flat.ServeHTTP(grec, httptest.NewRequest(http.MethodGet, "/admin/shards", nil))
	if grec.Code != http.StatusOK {
		t.Fatalf("unsharded status: %d", grec.Code)
	}
	var status shardsAdminResponse
	if err := json.Unmarshal(grec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Shards) != 0 {
		t.Errorf("unsharded pool reports %d shard rows", len(status.Shards))
	}
}

// TestAdminModelRegistry drives the registry end to end: list shows the
// primary, loading a second workload routes predict requests by name,
// evicting it drains its pool, and the primary is never evictable.
func TestAdminModelRegistry(t *testing.T) {
	primaryEng, primaryNet := shardTestEngine(t)
	cfg := shardTestConfig(2)
	cfg.Admin = AdminConfig{
		Enabled: true,
		Loader: func(name string) (*accel.Engine, Model, error) {
			if name != "second" {
				return nil, Model{}, fmt.Errorf("unknown workload %q", name)
			}
			eng, net := shardTestEngine(t)
			return eng, Model{Name: net.Name, InShape: net.InShape}, nil
		},
	}
	srv, err := NewServer(primaryEng, Model{Name: primaryNet.Name, InShape: primaryNet.InShape}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })

	listModels := func() []ModelInfo {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/models", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("list: %d (%s)", rec.Code, rec.Body)
		}
		var resp modelsAdminResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Models
	}

	models := listModels()
	if len(models) != 1 || !models[0].Primary || models[0].Shards != 2 {
		t.Fatalf("fresh registry: %+v", models)
	}

	// Load errors surface: unknown workloads and duplicate loads.
	if rec := postAdmin(t, srv, "/admin/models", `{"action":"load","model":"nope"}`); rec.Code != http.StatusConflict {
		t.Fatalf("loading an unknown workload: %d, want 409", rec.Code)
	}
	if rec := postAdmin(t, srv, "/admin/models", `{"action":"load","model":"second"}`); rec.Code != http.StatusOK {
		t.Fatalf("load: %d (%s)", rec.Code, rec.Body)
	}
	if rec := postAdmin(t, srv, "/admin/models", `{"action":"load","model":"second"}`); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate load: %d, want 409", rec.Code)
	}
	models = listModels()
	if len(models) != 2 || !models[0].Primary || models[1].Name != "second" {
		t.Fatalf("after load: %+v", models)
	}

	// Predict routes by name; the loaded pool carries the template's shard
	// topology.
	body := fmt.Sprintf(`{"image": %s, "seed": 4, "model": "second"}`, shardImageJSON(4))
	if rec := postPredict(t, srv, body); rec.Code != http.StatusOK {
		t.Fatalf("predict on loaded model: %d (%s)", rec.Code, rec.Body)
	}
	if models[1].Shards != 2 {
		t.Fatalf("loaded model not sharded like the template: %+v", models[1])
	}
	// Shard admin reaches the loaded model's pool by name.
	if rec := postAdmin(t, srv, "/admin/shards", `{"action":"drain","shard":0,"model":"second"}`); rec.Code != http.StatusOK {
		t.Fatalf("drain on loaded model: %d (%s)", rec.Code, rec.Body)
	}

	// Unknown predict targets are a clean 404.
	if rec := postPredict(t, srv, fmt.Sprintf(`{"image": %s, "model": "gone"}`, shardImageJSON(5))); rec.Code != http.StatusNotFound {
		t.Fatalf("predict on unknown model: %d, want 404", rec.Code)
	}

	// The primary cannot be evicted; the loaded model can, exactly once.
	if rec := postAdmin(t, srv, "/admin/models", fmt.Sprintf(`{"action":"evict","model":%q}`, primaryNet.Name)); rec.Code != http.StatusConflict {
		t.Fatalf("evicting the primary: %d, want 409", rec.Code)
	}
	if rec := postAdmin(t, srv, "/admin/models", `{"action":"evict","model":"second"}`); rec.Code != http.StatusOK {
		t.Fatalf("evict: %d (%s)", rec.Code, rec.Body)
	}
	if rec := postAdmin(t, srv, "/admin/models", `{"action":"evict","model":"second"}`); rec.Code != http.StatusConflict {
		t.Fatalf("double evict: %d, want 409", rec.Code)
	}
	if rec := postPredict(t, srv, body); rec.Code != http.StatusNotFound {
		t.Fatalf("predict on evicted model: %d, want 404", rec.Code)
	}
	if models = listModels(); len(models) != 1 {
		t.Fatalf("after evict: %+v", models)
	}
}

// TestAdminLoadDoesNotBlockPredict: a model load trains and maps outside
// the registry lock, so while a loader is parked the primary keeps
// answering predicts and the registry keeps listing. Two concurrent loads
// of one name still register one entry and refuse the other with a 409,
// and the loser's pool is closed rather than leaked.
func TestAdminLoadDoesNotBlockPredict(t *testing.T) {
	before := settledGoroutines()
	primaryEng, primaryNet := shardTestEngine(t)
	loaded := make(chan *accel.Engine, 2)
	for i := 0; i < cap(loaded); i++ {
		eng, _ := shardTestEngine(t)
		loaded <- eng
	}
	entered, release := make(chan struct{}, 2), make(chan struct{})
	cfg := shardTestConfig(1)
	cfg.Admin = AdminConfig{
		Enabled: true,
		Loader: func(name string) (*accel.Engine, Model, error) {
			entered <- struct{}{}
			<-release
			return <-loaded, Model{Name: name, InShape: primaryNet.InShape}, nil
		},
	}
	srv, err := NewServer(primaryEng, Model{Name: primaryNet.Name, InShape: primaryNet.InShape}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 2)
	load := func() {
		req := httptest.NewRequest(http.MethodPost, "/admin/models", strings.NewReader(`{"action":"load","model":"second"}`))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		codes <- rec.Code
	}
	parked := func(what string) {
		t.Helper()
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("%s never reached the loader: a load holds the registry lock", what)
		}
	}
	go load()
	parked("the first load")

	// The loader is parked: the primary and the registry must answer.
	done := make(chan int, 2)
	go func() { done <- postPredict(t, srv, fmt.Sprintf(`{"image": %s, "seed": 3}`, shardImageJSON(3))).Code }()
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/models", nil))
		done <- rec.Code
	}()
	for i := 0; i < 2; i++ {
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Errorf("request during a parked load: %d, want 200", code)
			}
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatal("a predict or list waited on a parked model load")
		}
	}

	// A second load of the same name reaches the loader too; only one
	// registers.
	go load()
	parked("a concurrent load of the same name")
	close(release)
	got := map[int]int{}
	for i := 0; i < 2; i++ {
		got[<-codes]++
	}
	if got[http.StatusOK] != 1 || got[http.StatusConflict] != 1 {
		t.Fatalf("concurrent duplicate loads answered %v, want one 200 and one 409", got)
	}
	if models := srv.reg.list(); len(models) != 2 || models[1].Name != "second" {
		t.Fatalf("after concurrent loads: %+v", models)
	}
	if _, err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := settledGoroutines(); after > before {
		t.Fatalf("%d goroutines outlive the server, %d before it: the losing load's pool leaked", after, before)
	}
}

// TestAdminLoadWithoutLoader: the registry refuses loads when the binary
// wired no Loader, with list and shard admin still live.
func TestAdminLoadWithoutLoader(t *testing.T) {
	srv := shardAdminServer(t, 2)
	rec := postAdmin(t, srv, "/admin/models", `{"action":"load","model":"second"}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("load without loader: %d, want 409 (%s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "loader") {
		t.Fatalf("refusal does not name the missing loader: %s", rec.Body)
	}
}

// FuzzAdminRequest: the admin decode layer never panics, and anything it
// accepts satisfies the validated invariants — whitelisted action,
// non-negative shard, non-empty model name.
func FuzzAdminRequest(f *testing.F) {
	for _, seed := range []string{
		`{"action":"drain","shard":1}`,
		`{"action":"repair","shard":0,"model":"MLP1"}`,
		`{"action":"rejoin","shard":15}`,
		`{"action":"load","model":"MLP2"}`,
		`{"action":"evict","model":"CNN1"}`,
		`{"action":"drain","shard":-1}`,
		`{"action":"drain","shrad":2}`,
		`{"action":"drain","shard":1}{"action":"drain"}`,
		`{"action":9}`,
		`nonsense`,
		``,
		`{"action":"drain","shard":184467440737095516160}`,
		"{\"action\":\"drain\",\"shard\":1,\"model\":\"\\u0000\"}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeShardAdminRequest(data); err == nil {
			switch req.Action {
			case "drain", "repair", "rejoin":
			default:
				t.Fatalf("shard decode accepted action %q", req.Action)
			}
			if req.Shard < 0 {
				t.Fatalf("shard decode accepted negative shard %d", req.Shard)
			}
		}
		if req, err := decodeModelAdminRequest(data); err == nil {
			switch req.Action {
			case "load", "evict":
			default:
				t.Fatalf("model decode accepted action %q", req.Action)
			}
			if req.Model == "" {
				t.Fatal("model decode accepted an empty model name")
			}
		}
	})
}

// TestAdminBodyBounded: an oversized admin body is refused, not buffered.
func TestAdminBodyBounded(t *testing.T) {
	srv := shardAdminServer(t, 2)
	big := `{"action":"drain","shard":1,"model":"` + strings.Repeat("x", maxAdminBodyBytes) + `"}`
	req := httptest.NewRequest(http.MethodPost, "/admin/shards", bytes.NewBufferString(big))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", rec.Code)
	}
}
