package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/shard"
)

// AdminConfig wires the operator API into the server mux: GET/POST
// /admin/shards (per-shard status, drain, repair, rejoin) and GET/POST
// /admin/models (workload registry: list, load, evict). Off by default —
// mutation endpoints on a serving port are an operator opt-in.
type AdminConfig struct {
	// Enabled registers the /admin routes.
	Enabled bool
	// Loader builds engines for named workloads on demand (POST
	// /admin/models {"action":"load"}). nil refuses loads; list and evict
	// still work.
	Loader Loader
}

// maxAdminBodyBytes bounds an admin request body: these are tiny operator
// commands, never bulk payloads.
const maxAdminBodyBytes = 4096

// shardAdminRequest is the POST /admin/shards body.
type shardAdminRequest struct {
	// Action is "drain" (route the shard's layers to software), "repair"
	// (re-program a drained shard's layers onto spares and verify), or
	// "rejoin" (return the shard to crossbar serving).
	Action string `json:"action"`
	// Shard is the target fault domain's id.
	Shard int `json:"shard"`
	// Model targets a registry workload ("" = the primary model).
	Model string `json:"model,omitempty"`
}

// decodeShardAdminRequest parses and validates a POST /admin/shards body.
// Unknown fields are rejected — an operator typo must fail loudly, not be
// silently ignored into a no-op (or worse, a default-target drain).
func decodeShardAdminRequest(data []byte) (shardAdminRequest, error) {
	var req shardAdminRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return shardAdminRequest{}, fmt.Errorf("bad JSON: %w", err)
	}
	if err := rejectTrailing(dec); err != nil {
		return shardAdminRequest{}, err
	}
	switch req.Action {
	case "drain", "repair", "rejoin":
	default:
		return shardAdminRequest{}, fmt.Errorf("unknown action %q (want drain|repair|rejoin)", req.Action)
	}
	if req.Shard < 0 {
		return shardAdminRequest{}, fmt.Errorf("negative shard id %d", req.Shard)
	}
	return req, nil
}

// modelAdminRequest is the POST /admin/models body.
type modelAdminRequest struct {
	// Action is "load" or "evict".
	Action string `json:"action"`
	// Model names the workload.
	Model string `json:"model"`
}

// decodeModelAdminRequest parses and validates a POST /admin/models body.
func decodeModelAdminRequest(data []byte) (modelAdminRequest, error) {
	var req modelAdminRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return modelAdminRequest{}, fmt.Errorf("bad JSON: %w", err)
	}
	if err := rejectTrailing(dec); err != nil {
		return modelAdminRequest{}, err
	}
	switch req.Action {
	case "load", "evict":
	default:
		return modelAdminRequest{}, fmt.Errorf("unknown action %q (want load|evict)", req.Action)
	}
	if req.Model == "" {
		return modelAdminRequest{}, fmt.Errorf("missing model name")
	}
	return req, nil
}

// rejectTrailing refuses bodies with content past the first JSON value —
// two concatenated commands must not half-apply.
func rejectTrailing(dec *json.Decoder) error {
	if dec.More() {
		return fmt.Errorf("trailing content after the request object")
	}
	return nil
}

// shardsAdminResponse is the GET /admin/shards (and post-action) body.
type shardsAdminResponse struct {
	Model string `json:"model"`
	// Shards is empty for an unsharded pool.
	Shards []shard.ShardStatus `json:"shards"`
}

func (s *Server) handleAdminShards(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		ent, ok := s.reg.lookup(r.URL.Query().Get("model"))
		if !ok {
			http.Error(w, "unknown model", http.StatusNotFound)
			return
		}
		s.writeShardStatus(w, ent)
	case http.MethodPost:
		body, err := readAdminBody(w, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := decodeShardAdminRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ent, ok := s.reg.lookup(req.Model)
		if !ok {
			http.Error(w, "unknown model", http.StatusNotFound)
			return
		}
		pool := ent.sched.ShardPool()
		if pool == nil {
			http.Error(w, "pool is not sharded", http.StatusConflict)
			return
		}
		if req.Shard >= pool.Size() {
			http.Error(w, fmt.Sprintf("shard %d out of range (pool has %d)", req.Shard, pool.Size()), http.StatusBadRequest)
			return
		}
		if err := s.applyShardAction(pool.Shard(req.Shard), req.Action); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		s.writeShardStatus(w, ent)
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

// applyShardAction runs one maintenance transition. Repair requires the
// shard to be drained first: re-programming a serving shard would stall
// traffic behind the layer write locks — exactly what the drain path exists
// to avoid.
func (s *Server) applyShardAction(sh *shard.Shard, action string) error {
	switch action {
	case "drain":
		return sh.Drain()
	case "repair":
		if sh.State() == shard.Serving {
			return fmt.Errorf("shard %d is serving — drain it before repairing", sh.ID())
		}
		dirty, err := sh.Repair()
		if err != nil {
			return err
		}
		if dirty > 0 {
			return fmt.Errorf("shard %d repair left %d layers dirty — it stays drained", sh.ID(), dirty)
		}
		return nil
	case "rejoin":
		return sh.Rejoin()
	}
	return fmt.Errorf("unknown action %q", action)
}

// writeShardStatus renders the pool's per-shard rows for one model.
func (s *Server) writeShardStatus(w http.ResponseWriter, ent *modelEntry) {
	resp := shardsAdminResponse{Model: ent.model.Name, Shards: []shard.ShardStatus{}}
	if pool := ent.sched.ShardPool(); pool != nil {
		resp.Shards = pool.Status()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// modelsAdminResponse is the GET /admin/models (and post-action) body.
type modelsAdminResponse struct {
	Models []ModelInfo `json:"models"`
}

func (s *Server) handleAdminModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		body, err := readAdminBody(w, r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req, err := decodeModelAdminRequest(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch req.Action {
		case "load":
			if err := s.reg.load(req.Model); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
		case "evict":
			ctx, cancel := context.WithTimeout(r.Context(), evictTimeout)
			err := s.reg.evict(ctx, req.Model)
			cancel()
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
		}
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(modelsAdminResponse{Models: s.reg.list()})
}

// readAdminBody reads a bounded admin request body.
func readAdminBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxAdminBodyBytes)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return buf.Bytes(), nil
}
