package expt

import (
	"repro/internal/accel"
)

// AblationResult is one design-choice variant evaluated on the same
// workload and device point.
type AblationResult struct {
	Name string
	Cell CellResult
}

// Ablation is one design-choice variant: the scheme it evaluates and, for
// the variants a scheme cannot express, the change it makes to the engine
// recipe (nil when the scheme alone is the variant).
type Ablation struct {
	Name   string
	Scheme accel.Scheme
	Engine func(*accel.Config)
}

// AblationSpecs returns the design-choice variants DESIGN.md calls out,
// all anchored on the ABN-9 configuration:
//
//   - abn9:            the shipped configuration (guard bits, 5 hardware
//     candidate As, detect-and-retry)
//   - full-search:     exhaustive A search instead of the 5-candidate
//     hardware divider (Section V-B4 vs Section VI)
//   - no-retry:        the throughput-preserving revert-on-detect policy
//     (Section VI-A)
//   - zero-guard:      the paper's exact bit accounting with no lane guard
//     bits, exposing inter-lane carry bleed (DESIGN.md section 1)
//   - group-4:         four operands per coded group instead of eight
//   - ungrouped:       one operand per code word (constant-overhead
//     grouping disabled)
//   - differential:    PRIME-style positive/negative row pairs instead of
//     ISAAC's offset-binary negative-weight encoding
func AblationSpecs() []Ablation {
	base := accel.SchemeABN(9)
	full := base
	full.FullSearch = true
	full.Name = "full-search"
	zg := base
	zg.ZeroGuard = true
	zg.Name = "zero-guard"
	g4 := base
	g4.GroupOps = 4
	g4.Name = "group-4"
	g1 := base
	g1.GroupOps = 1
	g1.Name = "ungrouped"
	diff := base
	diff.Name = "differential"
	return []Ablation{
		{Name: "abn9", Scheme: base},
		{Name: "full-search", Scheme: full},
		{Name: "no-retry", Scheme: base, Engine: func(c *accel.Config) { c.Retries = 0 }},
		{Name: "zero-guard", Scheme: zg},
		{Name: "group-4", Scheme: g4},
		{Name: "ungrouped", Scheme: g1},
		{Name: "differential", Scheme: diff, Engine: func(c *accel.Config) { c.Encoding = accel.EncodingDifferential }},
	}
}

// RunAblations evaluates the variants on one workload at one device point.
func RunAblations(w Workload, opt SweepOptions) ([]AblationResult, error) {
	dev := opt.Device
	dev.BitsPerCell = 2
	var out []AblationResult
	for _, spec := range AblationSpecs() {
		cfg := opt.cell(dev, spec.Scheme)
		acfg := cfg.engineConfig()
		if spec.Engine != nil {
			spec.Engine(&acfg)
		}
		cell, err := evaluateMapped(w, cfg, acfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{Name: spec.Name, Cell: cell})
		opt.Progress.Printf("ablation %-12s miss=%.4f corr=%d det=%d\n",
			spec.Name, cell.MissRate(), cell.Stats.Corrected, cell.Stats.Detected)
	}
	return out, nil
}
