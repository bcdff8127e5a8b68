package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/shard"
)

// maxBodyBytes bounds a predict request body (a MiniAlexNet batch of a few
// hundred images fits comfortably).
const maxBodyBytes = 64 << 20

// Model names the served network and fixes the input contract.
type Model struct {
	// Name labels the workload in /healthz and responses ("MLP1", ...).
	Name string
	// InShape is the tensor shape every image must flatten to.
	InShape []int
}

// Server is the HTTP front end: POST /v1/predict, GET /healthz (liveness),
// GET /readyz (readiness), GET /metrics, and — when AdminConfig.Enabled —
// the /admin operator surface (shard maintenance and the workload registry).
type Server struct {
	sched   *Scheduler
	metrics *Metrics
	model   Model
	inLen   int
	mux     *http.ServeMux
	ready   atomic.Bool
	reg     *registry
}

// NewServer builds the scheduler pool over a mapped engine and wires the
// routes.
func NewServer(eng *accel.Engine, model Model, cfg Config) (*Server, error) {
	sched, err := NewScheduler(eng, cfg)
	if err != nil {
		return nil, err
	}
	inLen := 1
	for _, d := range model.InShape {
		inLen *= d
	}
	if len(model.InShape) == 0 || inLen <= 0 {
		return nil, fmt.Errorf("serve: model %q has no input shape", model.Name)
	}
	s := &Server{sched: sched, metrics: newMetrics(), model: model, inLen: inLen, mux: http.NewServeMux()}
	s.reg = newRegistry(cfg, cfg.Admin.Loader, model.Name, &modelEntry{model: model, sched: sched, inLen: inLen})
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Plan.Enabled {
		s.mux.HandleFunc("/plan", s.handlePlan)
	}
	if cfg.Admin.Enabled {
		s.mux.HandleFunc("/admin/shards", s.handleAdminShards)
		s.mux.HandleFunc("/admin/models", s.handleAdminModels)
	}
	if cfg.Pprof {
		// The stdlib handlers, on our mux rather than DefaultServeMux, so
		// profiling shares the admin surface and honors the same listener.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.ready.Store(true)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler exposes the pool (benchmarks and telemetry).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Metrics exposes the telemetry accumulator.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Shutdown marks the server not-ready (health checks start failing, so load
// balancers stop routing here), then drains the admission queue: every
// admitted request is answered before the workers exit. The summary is
// partial but still meaningful when ctx expires mid-drain.
func (s *Server) Shutdown(ctx context.Context) (DrainSummary, error) {
	s.ready.Store(false)
	s.reg.closeLoaded(ctx)
	return s.sched.Close(ctx)
}

// predictRequest is the POST /v1/predict body. Exactly one of Image or
// Images must be set.
type predictRequest struct {
	// Image is one flattened image (row-major, CHW for conv inputs).
	Image []float64 `json:"image,omitempty"`
	// Images is a batch, fanned across the worker pool.
	Images [][]float64 `json:"images,omitempty"`
	// TopK asks for that many ranked classes (0 = server default).
	TopK int `json:"top_k,omitempty"`
	// Seed pins the noise stream of the first image (entry i uses Seed+i);
	// 0 or absent lets the server assign fresh streams.
	Seed uint64 `json:"seed,omitempty"`
	// Model routes the request to a registry workload ("" = the primary
	// model this server booted with).
	Model string `json:"model,omitempty"`
}

// eccJSON is the per-request slice of accel.Stats.
type eccJSON struct {
	RowReads  uint64 `json:"row_reads"`
	RowErrors uint64 `json:"row_errors"`
	Clean     uint64 `json:"clean"`
	Corrected uint64 `json:"corrected"`
	Detected  uint64 `json:"detected"`
	Retries   uint64 `json:"retries"`
	Residual  uint64 `json:"residual"`
	SoftMVMs  uint64 `json:"soft_mvms,omitempty"`
}

type resultJSON struct {
	Class int     `json:"class"`
	TopK  []int   `json:"top_k"`
	Seed  uint64  `json:"seed"`
	ECC   eccJSON `json:"ecc"`
	// Recovery-ladder metadata: how many retries this answer consumed,
	// which layers were re-programmed on its behalf, and which layers it
	// was served from the software fallback (degraded accuracy).
	LadderRetries int   `json:"ladder_retries,omitempty"`
	Remapped      []int `json:"remapped_layers,omitempty"`
	Degraded      []int `json:"degraded_layers,omitempty"`
}

type predictResponse struct {
	Workload string       `json:"workload"`
	Scheme   string       `json:"scheme"`
	Results  []resultJSON `json:"results"`
	// Degraded warns that at least one answer came from the software
	// fallback path at reduced fidelity.
	Degraded  bool    `json:"degraded,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	var req predictRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, start, http.StatusBadRequest, outcomeBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	ent, ok := s.reg.lookup(req.Model)
	if !ok {
		s.fail(w, start, http.StatusNotFound, outcomeBadRequest, fmt.Sprintf("model %q is not loaded", req.Model))
		return
	}
	images := req.Images
	if len(req.Image) > 0 {
		images = append([][]float64{req.Image}, images...)
	}
	if len(images) == 0 {
		s.fail(w, start, http.StatusBadRequest, outcomeBadRequest, `need "image" or "images"`)
		return
	}
	inputs := make([]*nn.Tensor, len(images))
	for i, im := range images {
		if len(im) != ent.inLen {
			s.fail(w, start, http.StatusBadRequest, outcomeBadRequest,
				fmt.Sprintf("image %d has %d values, want %d for shape %v", i, len(im), ent.inLen, ent.model.InShape))
			return
		}
		inputs[i] = nn.FromSlice(im, ent.model.InShape...)
	}

	preds, err := ent.sched.PredictBatch(r.Context(), inputs, req.Seed, req.TopK)
	if err != nil {
		status, outcome := classifyErr(err)
		s.fail(w, start, status, outcome, err.Error())
		return
	}

	resp := predictResponse{
		Workload: ent.model.Name,
		Scheme:   ent.sched.Engine().Config().Scheme.Name,
		Results:  make([]resultJSON, len(preds)),
	}
	var total accel.Stats
	for i, p := range preds {
		total.Merge(p.Stats)
		if len(p.Degraded) > 0 {
			resp.Degraded = true
		}
		resp.Results[i] = resultJSON{
			Class: p.Class, TopK: p.TopK, Seed: p.Seed,
			ECC: eccJSON{
				RowReads: p.Stats.RowReads, RowErrors: p.Stats.RowErrors,
				Clean: p.Stats.Clean, Corrected: p.Stats.Corrected,
				Detected: p.Stats.Detected, Retries: p.Stats.Retries,
				Residual: p.Stats.Residual, SoftMVMs: p.Stats.SoftMVMs,
			},
			LadderRetries: p.LadderRetries,
			Remapped:      p.Remapped,
			Degraded:      p.Degraded,
		}
	}
	elapsed := time.Since(start)
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	s.metrics.observe(outcomeOK, len(preds), elapsed, total)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// fail records the outcome and writes the error status.
func (s *Server) fail(w http.ResponseWriter, start time.Time, status int, outcome, msg string) {
	s.metrics.observe(outcome, 0, time.Since(start), accel.Stats{})
	http.Error(w, msg, status)
}

// classifyErr maps scheduler errors to HTTP semantics: backpressure is the
// client's cue to retry with jitter (429), a queue-deadline miss or a
// draining pool is a service condition (503).
func classifyErr(err error) (status int, outcome string) {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, outcomeQueueFull
	case errors.Is(err, ErrQueueTimeout):
		return http.StatusServiceUnavailable, outcomeTimeout
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, outcomeError
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, outcomeCanceled
	default:
		return http.StatusInternalServerError, outcomeError
	}
}

// healthzResponse reports liveness and the mapped configuration.
type healthzResponse struct {
	Status   string `json:"status"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Device   string `json:"device,omitempty"`
	Bits     int    `json:"bits_per_cell"`
	Workers  int    `json:"workers"`
	Queue    int    `json:"queue_depth"`
	// Persist reports the snapshotter: how this boot restored (fresh map,
	// resumed from snapshot, or fallback after a refused snapshot) and how
	// stale the newest snapshot is. Omitted when persistence is disabled.
	Persist *persistJSON `json:"persist,omitempty"`
}

// persistJSON is the snapshotter's row in /healthz and /readyz.
type persistJSON struct {
	// Outcome is what the boot-time restore did: "fresh" (no snapshot),
	// "restored" (resumed the persisted trajectory), or "fallback" (a
	// snapshot existed but was refused — corrupt, version-mismatched, or
	// inconsistent with this configuration — and the pool booted fresh).
	Outcome string `json:"outcome"`
	// RestoreErr is why the snapshot was refused (fallback only).
	RestoreErr string `json:"restore_error,omitempty"`
	// SnapshotAgeSec is seconds since the last published snapshot (omitted
	// before the first save on a fresh boot).
	SnapshotAgeSec float64 `json:"snapshot_age_sec,omitempty"`
	// Saves / SaveErrors count snapshot attempts this process made.
	Saves      uint64 `json:"saves"`
	SaveErrors uint64 `json:"save_errors,omitempty"`
	// LastSaveErr is the most recent save failure ("" after a success).
	LastSaveErr string `json:"last_save_error,omitempty"`
}

// persistRow builds the shared /healthz//readyz persist annotation, nil when
// persistence is disabled.
func (s *Server) persistRow() *persistJSON {
	ps, ok := s.sched.PersistStatus()
	if !ok {
		return nil
	}
	return &persistJSON{
		Outcome:        string(ps.Outcome),
		RestoreErr:     ps.RestoreErr,
		SnapshotAgeSec: ps.SnapshotAge.Seconds(),
		Saves:          ps.Saves,
		SaveErrors:     ps.SaveErrors,
		LastSaveErr:    ps.LastSaveErr,
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cfg := s.sched.Engine().Config()
	resp := healthzResponse{
		Status:   "ok",
		Workload: s.model.Name,
		Scheme:   cfg.Scheme.Name,
		Device:   cfg.DeviceName,
		Bits:     cfg.Device.BitsPerCell,
		Workers:  s.sched.Workers(),
		Queue:    s.sched.QueueDepth(),
		Persist:  s.persistRow(),
	}
	w.Header().Set("Content-Type", "application/json")
	if !s.ready.Load() {
		resp.Status = "draining"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// readyzResponse reports whether this instance should receive traffic,
// and why not when it shouldn't.
type readyzResponse struct {
	Ready bool `json:"ready"`
	// Draining is true once shutdown began.
	Draining bool `json:"draining,omitempty"`
	// Device names the active device profile the arrays are modeled on.
	Device string `json:"device,omitempty"`
	// QueueLen / QueueDepth expose admission backpressure; a wedged-full
	// queue makes the instance not ready so load balancers route around
	// it instead of collecting 429s.
	QueueLen   int `json:"queue_len"`
	QueueDepth int `json:"queue_depth"`
	// BreakerOpen lists layers whose health breaker is currently open —
	// the instance still answers (the ladder is working), but operators
	// see the degradation cause here.
	BreakerOpen []int `json:"breaker_open_layers,omitempty"`
	// DegradedLayers lists layers served from the software fallback.
	DegradedLayers []int `json:"degraded_layers,omitempty"`
	// ScrubOldestAgeSec is the patrol-cycle age: seconds since the
	// least-recently patrolled layer's last pass (omitted when scrubbing is
	// disabled).
	ScrubOldestAgeSec float64 `json:"scrub_oldest_age_sec,omitempty"`
	// ScrubStale flags a patrol-cycle age past 100 patrol intervals —
	// informational: the instance still serves (the reactive ladder is
	// armed), but operators see the proactive loop has fallen behind.
	ScrubStale bool `json:"scrub_stale,omitempty"`
	// Shards reports per-fault-domain state when the engine is sharded
	// (omitted otherwise). A draining or degraded shard is informational —
	// its layers serve from siblings or software — but operators see which
	// domain is out and why traffic survives.
	Shards []shard.ShardStatus `json:"shards,omitempty"`
	// Replicas reports per-replica attachment and health when the layer
	// slots are replicated (omitted otherwise).
	Replicas []replicaJSON `json:"replicas,omitempty"`
	// Controller reports the protection controller's posture (omitted when
	// it is not wired).
	Controller *controllerJSON `json:"controller,omitempty"`
	// Persist reports the snapshotter's restore outcome and snapshot age
	// (omitted when persistence is disabled). A "fallback" outcome is
	// informational — the instance serves from a fresh map — but operators
	// see here that the lifetime trajectory was not resumed.
	Persist *persistJSON `json:"persist,omitempty"`
}

// controllerJSON is the protection controller's row in /readyz.
type controllerJSON struct {
	// Level is the current protection level, 0 (baseline) .. MaxLevel.
	Level    int `json:"level"`
	MaxLevel int `json:"max_level"`
	// ScrubIntervalSec is the live patrol cadence under the current level.
	ScrubIntervalSec float64 `json:"scrub_interval_sec,omitempty"`
	// VoteThreshold is the live majority-vote trigger (omitted without a
	// replica set).
	VoteThreshold int    `json:"vote_threshold,omitempty"`
	Ticks         uint64 `json:"ticks"`
	// Decisions counts applied actions by name (tighten/relax/repair/degrade).
	Decisions map[string]uint64 `json:"decisions,omitempty"`
}

// replicaJSON is one replica's row in /readyz.
type replicaJSON struct {
	ID       int  `json:"id"`
	Attached bool `json:"attached"`
	// BreakerOpenLayers lists layers whose routing breaker is open on this
	// replica (traffic is steered to its siblings there).
	BreakerOpenLayers []int  `json:"breaker_open_layers,omitempty"`
	Failovers         uint64 `json:"failovers,omitempty"`
	Detaches          uint64 `json:"detaches,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{
		Draining:       !s.ready.Load(),
		Device:         s.sched.Engine().Config().DeviceName,
		QueueLen:       s.sched.QueueLen(),
		QueueDepth:     s.sched.QueueDepth(),
		DegradedLayers: s.sched.Engine().DegradedLayers(),
	}
	for _, h := range s.sched.Health() {
		if h.State == fault.BreakerOpen {
			resp.BreakerOpen = append(resp.BreakerOpen, h.Layer)
		}
	}
	if st, ok := s.sched.ScrubStatus(); ok {
		resp.ScrubOldestAgeSec = st.OldestAge.Seconds()
		resp.ScrubStale = st.Stale
	}
	if pool := s.sched.ShardPool(); pool != nil {
		resp.Shards = pool.Status()
	}
	if set := s.sched.ReplicaSet(); set != nil {
		for _, rs := range set.Status().Replicas {
			resp.Replicas = append(resp.Replicas, replicaJSON{
				ID: rs.ID, Attached: rs.Attached,
				BreakerOpenLayers: rs.OpenLayers,
				Failovers:         rs.Failovers,
				Detaches:          rs.Detaches,
			})
		}
	}
	if cs, ok := s.sched.ControllerStatus(); ok {
		cj := &controllerJSON{
			Level:            cs.Level,
			MaxLevel:         cs.MaxLevel,
			ScrubIntervalSec: cs.ScrubInterval.Seconds(),
			Ticks:            cs.Ticks,
			Decisions:        cs.Decisions,
		}
		if cs.VoteThreshold >= 0 {
			cj.VoteThreshold = cs.VoteThreshold
		}
		resp.Controller = cj
	}
	resp.Persist = s.persistRow()
	resp.Ready = !resp.Draining && resp.QueueLen < resp.QueueDepth
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cfg := s.sched.Engine().Config()
	g := GaugeView{
		QueueDepth:     s.sched.QueueLen(),
		Workers:        s.sched.Workers(),
		Health:         s.sched.Health(),
		DegradedLayers: s.sched.Engine().DegradedLayers(),
		Recovery:       s.sched.RecoveryCounters(),
		Batch:          s.sched.BatchStatus(),
		Device:         cfg.DeviceName,
		Scheme:         cfg.Scheme.Name,
	}
	if cs, ok := s.sched.ControllerStatus(); ok {
		g.Controller = &cs
	}
	verify := s.sched.Engine().VerifyStats()
	if st, ok := s.sched.ScrubStatus(); ok {
		g.Scrub = &st
		verify.Merge(st.Totals.Verify)
	}
	if verify.Cells > 0 {
		g.Verify = &verify
	}
	if pool := s.sched.ShardPool(); pool != nil {
		g.Shards = pool.Status()
	}
	if set := s.sched.ReplicaSet(); set != nil {
		st := set.Status()
		g.Replicas = &st
	}
	if ps, ok := s.sched.PersistStatus(); ok {
		g.Persist = &ps
	}
	s.metrics.WritePrometheus(w, g)
}
