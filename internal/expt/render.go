package expt

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/hwmodel"
)

// RenderSweep prints a Figure 10/11 style table: one block per workload,
// rows per scheme, columns per bits-per-cell.
func RenderSweep(w io.Writer, cells []CellResult) {
	byWorkload := map[string][]CellResult{}
	var workloads []string
	for _, c := range cells {
		if _, ok := byWorkload[c.Workload]; !ok {
			workloads = append(workloads, c.Workload)
		}
		byWorkload[c.Workload] = append(byWorkload[c.Workload], c)
	}
	for _, name := range workloads {
		group := byWorkload[name]
		bitsSet := map[int]bool{}
		schemes := []string{}
		seen := map[string]bool{}
		var software *CellResult
		for i, c := range group {
			if c.Scheme == SchemeSoftware {
				software = &group[i]
				continue
			}
			bitsSet[c.Bits] = true
			if !seen[c.Scheme] {
				seen[c.Scheme] = true
				schemes = append(schemes, c.Scheme)
			}
		}
		var bits []int
		for b := range bitsSet {
			bits = append(bits, b)
		}
		sort.Ints(bits)

		fmt.Fprintf(w, "\n%s misclassification rate\n", name)
		header := fmt.Sprintf("%-11s", "scheme")
		for _, b := range bits {
			header += fmt.Sprintf("  %6d-bit", b)
		}
		fmt.Fprintln(w, header)
		fmt.Fprintln(w, strings.Repeat("-", len(header)))
		if software != nil {
			row := fmt.Sprintf("%-11s", SchemeSoftware)
			for range bits {
				row += fmt.Sprintf("  %9.4f", software.MissRate())
			}
			fmt.Fprintln(w, row)
		}
		for _, s := range schemes {
			row := fmt.Sprintf("%-11s", s)
			for _, b := range bits {
				val := "        - "
				for _, c := range group {
					if c.Scheme == s && c.Bits == b {
						val = fmt.Sprintf("  %9.4f", c.MissRate())
					}
				}
				row += val
			}
			fmt.Fprintln(w, row)
		}
	}
}

// WriteCSV writes a header and one record per row: the one CSV writer
// behind every results file the harness emits.
func WriteCSV[T any](w io.Writer, header []string, rows []T, record func(T) []string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(record(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSweepCSV emits the sweep cells as CSV.
func WriteSweepCSV(w io.Writer, cells []CellResult) error {
	return WriteCSV(w, []string{"workload", "scheme", "bits", "miss", "halfwidth95",
		"drift", "row_error_rate", "corrected", "detected", "retries", "residual"}, cells,
		func(c CellResult) []string {
			return []string{
				c.Workload, c.Scheme, strconv.Itoa(c.Bits),
				fmt.Sprintf("%.6f", c.MissRate()),
				fmt.Sprintf("%.6f", c.Miss.HalfWidth95()),
				fmt.Sprintf("%.6e", c.Drift.Mean()),
				fmt.Sprintf("%.6e", c.Stats.RowErrorRate()),
				strconv.FormatUint(c.Stats.Corrected, 10),
				strconv.FormatUint(c.Stats.Detected, 10),
				strconv.FormatUint(c.Stats.Retries, 10),
				strconv.FormatUint(c.Stats.Residual, 10),
			}
		})
}

// RenderFig12 prints the sensitivity table: misclassification and, because
// the 2-bit operating point often saturates at the software baseline, the
// mean logit drift, which resolves the RTN sensitivity far below the
// misclassification threshold.
func RenderFig12(w io.Writer, pts []Fig12Point) {
	fmt.Fprintln(w, "\nMLP1 @ 2-bit sensitivity (misclassification rate | mean logit drift)")
	for _, pt := range pts {
		fmt.Fprintf(w, "%s = %-7.3g", pt.Knob, pt.Value)
		for _, c := range pt.Cells {
			if c.Scheme == SchemeSoftware {
				fmt.Fprintf(w, "  %s=%.4f", c.Scheme, c.MissRate())
				continue
			}
			fmt.Fprintf(w, "  %s=%.4f|%.3g", c.Scheme, c.MissRate(), c.Drift.Mean())
		}
		fmt.Fprintln(w)
	}
}

// RenderTable3 prints the AlexNet stand-in results in the Table III shape.
func RenderTable3(w io.Writer, r Table3Result) {
	fmt.Fprintln(w, "\nMiniAlexNet (ILSVRC stand-in), 2-bit cells, ABN-9")
	fmt.Fprintf(w, "%-24s %10s %12s %8s\n", "", "Software", "Uncorrected", "ABN-9")
	fmt.Fprintf(w, "%-24s %9.2f%% %11.2f%% %7.2f%%\n", "Top-1 misclassification",
		100*r.Software.Miss.Rate(), 100*r.Uncorrected.Miss.Rate(), 100*r.ABN9.Miss.Rate())
	fmt.Fprintf(w, "%-24s %9.2f%% %11.2f%% %7.2f%%\n", "Top-5 misclassification",
		100*r.Software.MissTopK.Rate(), 100*r.Uncorrected.MissTopK.Rate(), 100*r.ABN9.MissTopK.Rate())
}

// RenderTable4 prints the hardware budget in the Table IV shape plus the
// Section VIII-B percentages.
func RenderTable4(w io.Writer, o hwmodel.Overheads) {
	fmt.Fprintln(w, "\nPower and area of the 9-bit error correction hardware (32 nm)")
	fmt.Fprintf(w, "%-30s %12s %10s\n", "Component", "Area", "Power")
	fmt.Fprintf(w, "%-30s %9.4f mm2 %7.2f mW\n", "Error Correction Unit (ECU)", o.ECUUnit.AreaMM2, o.ECUUnit.PowerMW)
	fmt.Fprintf(w, "%-30s %9.4f mm2 %7.2f mW\n", "Error Correction Table", o.TableUnit.AreaMM2, o.TableUnit.PowerMW)
	fmt.Fprintf(w, "\nECU area overhead per tile:    %5.1f%%\n", 100*o.ECUAreaPct)
	fmt.Fprintf(w, "Check-bit row overhead (tile): %5.1f%%\n", 100*o.RowAreaPct)
	fmt.Fprintf(w, "Total tile area overhead:      %5.1f%%\n", 100*o.TileArea)
	fmt.Fprintf(w, "Chip area overhead:            %5.1f%%\n", 100*o.ChipArea)
	fmt.Fprintf(w, "ECU power overhead per tile:   %5.1f%%\n", 100*o.ECUPowerPc)
	fmt.Fprintf(w, "Chip power overhead:           %5.1f%%\n", 100*o.ChipPower)
}

// RenderFig7 prints the transient summary and optionally the trace as CSV.
func RenderFig7(w io.Writer, res *circuit.Result) {
	fmt.Fprintln(w, "\n128-cell row transient (Figure 7 configuration)")
	fmt.Fprintf(w, "ideal current:    %.4g A\n", res.IdealCurrent)
	fmt.Fprintf(w, "ADC step:         %.4g A\n", res.StepCurrent)
	fmt.Fprintf(w, "error rate:       %.2f%% total (%.2f%% high, %.2f%% low)\n",
		100*res.TotalRate, 100*res.HighRate, 100*res.LowRate)
	fmt.Fprintf(w, "RTN occupancy:    %.1f%%\n", 100*res.RTNOccupancy)
	fmt.Fprintf(w, "samples:          %d\n", len(res.Samples))
}

// WriteFig7CSV writes the transient trace for plotting.
func WriteFig7CSV(w io.Writer, res *circuit.Result) error {
	return WriteCSV(w, []string{"time_s", "current_a", "error_steps"}, res.Samples,
		func(s circuit.Sample) []string {
			return []string{
				fmt.Sprintf("%.6e", s.Time),
				fmt.Sprintf("%.6e", s.Current),
				strconv.Itoa(s.ErrorSteps),
			}
		})
}
