package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/fault"
	"repro/internal/predict"
)

// PlanConfig wires the GET /plan endpoint: the analytic SLO planner run
// against the live deployment. Each request re-runs the protection-space
// search with the health monitor's current measured rates folded in, so the
// answer drifts with the hardware — a fleet that ages past its margins shows
// up as a plan recommending a stronger scheme than the one deployed.
type PlanConfig struct {
	// Enabled registers GET /plan on the serving mux.
	Enabled bool
	// Calibration is the offline software-forward calibration of the served
	// network (logit margins, bit-plane activities). Required when Enabled:
	// the planner cannot predict accuracy without it.
	Calibration *predict.Calibration
	// SLO is the accuracy/availability target the planner sizes for.
	SLO predict.SLO
	// MaxReplicas bounds the availability search (0 = planner default).
	MaxReplicas int
}

// Validate rejects an enabled endpoint with missing inputs.
func (c PlanConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Calibration == nil {
		return fmt.Errorf("serve: plan endpoint needs a calibration")
	}
	if c.SLO.MaxMiss <= 0 {
		return fmt.Errorf("serve: plan endpoint needs a positive SLO max miss")
	}
	return nil
}

// planLayerJSON is one layer's chosen protection in the /plan response.
type planLayerJSON struct {
	Layer   int     `json:"layer"`
	Scheme  string  `json:"scheme"`
	PDetect float64 `json:"p_detect"`
	VarOut  float64 `json:"var_out"`
	AreaMM2 float64 `json:"area_mm2"`
	PowerMW float64 `json:"power_mw"`
	// Kappa is the measured/predicted recalibration factor that informed
	// this layer (1 = no usable measurement window).
	Kappa float64 `json:"kappa"`
}

// planResponse is the GET /plan body.
type planResponse struct {
	Workload string `json:"workload"`
	// Device names the device profile the plan was priced against.
	Device string `json:"device,omitempty"`
	// Deployed is the scheme currently serving traffic; the plan below may
	// disagree with it, which is the point.
	Deployed        string          `json:"deployed_scheme"`
	SLOMaxMiss      float64         `json:"slo_max_miss"`
	SLOAvailability float64         `json:"slo_min_availability,omitempty"`
	Satisfied       bool            `json:"satisfied"`
	PredictedMiss   float64         `json:"predicted_miss"`
	LogitSigma      float64         `json:"logit_sigma"`
	Availability    float64         `json:"availability"`
	Replicas        int             `json:"replicas"`
	SpareRows       int             `json:"spare_rows"`
	ScrubEvery      int             `json:"scrub_every,omitempty"`
	TotalAreaMM2    float64         `json:"total_area_mm2"`
	TotalPowerMW    float64         `json:"total_power_mw"`
	Searched        int             `json:"searched"`
	MeasuredLayers  int             `json:"measured_layers"`
	Layers          []planLayerJSON `json:"layers"`
}

// livePlan runs the protection planner against the live engine: the
// deployed configuration under the plan SLO, recalibrated by the per-layer
// rates the health monitor has measured so far (none without a monitor),
// which it returns alongside the plan. GET /plan and the controller's
// preemptive check both plan through here.
func (s *Scheduler) livePlan() (*predict.Plan, []fault.LayerRates, error) {
	pcfg := predict.PlannerConfig{
		Base:        s.eng.Config(),
		SLO:         s.cfg.Plan.SLO,
		MaxReplicas: s.cfg.Plan.MaxReplicas,
	}
	var rates []fault.LayerRates
	if s.rec != nil {
		rates = s.rec.mon.Rates()
	}
	if len(rates) > 0 {
		pcfg.Measured = make(map[int]predict.MeasuredRates, len(rates))
		for _, lr := range rates {
			pcfg.Measured[lr.Layer] = predict.MeasuredRates{Detected: lr.Detected, Reads: lr.Reads}
		}
	}
	plan, err := predict.BuildPlan(s.eng.Network(), s.cfg.Plan.Calibration, pcfg)
	return plan, rates, err
}

// handlePlan runs the protection planner against the live engine: analytic
// rates recalibrated by whatever the health monitor has measured so far.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	sched := s.Scheduler()
	plan, rates, err := sched.livePlan()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	measured := 0
	for _, lr := range rates {
		if lr.Reads > 0 {
			measured++
		}
	}
	eng := sched.Engine()
	slo := sched.cfg.Plan.SLO
	resp := planResponse{
		Workload:        s.reg.primary.model.Name,
		Device:          eng.Config().DeviceName,
		Deployed:        eng.Config().Scheme.Name,
		SLOMaxMiss:      slo.MaxMiss,
		SLOAvailability: slo.MinAvailability,
		Satisfied:       plan.Satisfied,
		PredictedMiss:   plan.Predicted.Miss,
		LogitSigma:      plan.Predicted.LogitSigma,
		Availability:    plan.Availability,
		Replicas:        plan.Replicas,
		SpareRows:       plan.SpareRows,
		ScrubEvery:      plan.ScrubEvery,
		TotalAreaMM2:    plan.Bill.Area.AreaMM2,
		TotalPowerMW:    plan.Bill.Area.PowerMW,
		Searched:        plan.Searched,
		MeasuredLayers:  measured,
	}
	for _, lp := range plan.Layers {
		resp.Layers = append(resp.Layers, planLayerJSON{
			Layer: lp.Layer, Scheme: lp.Scheme,
			PDetect: lp.PDetect, VarOut: lp.VarOut,
			AreaMM2: lp.AreaMM2, PowerMW: lp.PowerMW,
			Kappa: lp.Kappa,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
