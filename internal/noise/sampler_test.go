package noise

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func newTestSampler(t *testing.T, mod func(*DeviceParams)) *RowSampler {
	t.Helper()
	p := DefaultDeviceParams()
	if mod != nil {
		mod(&p)
	}
	s, err := NewRowSampler(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRowSamplerRejectsInvalid(t *testing.T) {
	p := DefaultDeviceParams()
	p.BitsPerCell = 0
	if _, err := NewRowSampler(p); err == nil {
		t.Fatal("expected error")
	}
}

func TestSampleErrorNoCells(t *testing.T) {
	s := newTestSampler(t, nil)
	rng := stats.NewRNG(1)
	for i := 0; i < 100; i++ {
		if e := s.SampleError(rng, []int{0, 0, 0, 0}); e != 0 {
			t.Fatalf("empty row produced error %d", e)
		}
	}
}

func TestSampleErrorNoNoiseSources(t *testing.T) {
	s := newTestSampler(t, func(p *DeviceParams) {
		p.PRTN = 0
		p.ProgErrFrac = 0
		p.SampleFreq = 0 // kills thermal and shot noise
	})
	rng := stats.NewRNG(2)
	for i := 0; i < 200; i++ {
		if e := s.SampleError(rng, []int{10, 10, 10, 10}); e != 0 {
			t.Fatalf("noise-free read produced error %d", e)
		}
	}
}

// TestSection4InstantaneousRegime checks that with the ADC temporal
// averaging disabled (one RTN configuration per conversion, the Figure 7
// instantaneous view) a fully occupied 128-cell 2-bit row errs at a
// double-digit rate, the Section IV regime. The high/low asymmetry of the
// bare-row experiment is validated in the circuit package, which models the
// partial (vector-free) calibration that causes it.
func TestSection4InstantaneousRegime(t *testing.T) {
	s := newTestSampler(t, func(p *DeviceParams) { p.RTNAveraging = 1 })
	rng := stats.NewRNG(3)
	counts := []int{32, 32, 32, 32}
	const n = 50000
	errs := 0
	for i := 0; i < n; i++ {
		if s.SampleError(rng, counts) != 0 {
			errs++
		}
	}
	total := float64(errs) / n
	if total < 0.05 || total > 0.35 {
		t.Errorf("instantaneous error rate %.3f outside the Section IV regime", total)
	}
}

// TestAveragingAttenuatesErrors checks the RTNAveraging knob: longer ADC
// integration must strictly reduce the row error rate.
func TestAveragingAttenuatesErrors(t *testing.T) {
	rate := func(k int) float64 {
		s := newTestSampler(t, func(p *DeviceParams) { p.RTNAveraging = k })
		rng := stats.NewRNG(uint64(k))
		counts := []int{32, 32, 32, 32}
		errs := 0
		const n = 30000
		for i := 0; i < n; i++ {
			if s.SampleError(rng, counts) != 0 {
				errs++
			}
		}
		return float64(errs) / n
	}
	r1, r64 := rate(1), rate(64)
	if r64 >= r1/3 {
		t.Fatalf("averaging barely helped: K=1 %.4f vs K=64 %.4f", r1, r64)
	}
}

// TestErrorRateGrowsWithBitsPerCell checks the scalability trend the paper
// motivates: more bits per cell shrinks the ADC step and inflates the error
// rate.
func TestErrorRateGrowsWithBitsPerCell(t *testing.T) {
	rate := func(bits int) float64 {
		s := newTestSampler(t, func(p *DeviceParams) { p.BitsPerCell = bits })
		k := 1 << bits
		counts := make([]int, k)
		for i := range counts {
			counts[i] = 128 / k
		}
		rng := stats.NewRNG(uint64(bits))
		errs := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if s.SampleError(rng, counts) != 0 {
				errs++
			}
		}
		return float64(errs) / n
	}
	r1, r4, r5 := rate(1), rate(4), rate(5)
	if !(r1 <= r4 && r4 <= r5 && r5 > r1) {
		t.Fatalf("error rate must grow with cell bits: %g, %g, %g", r1, r4, r5)
	}
	if r5 < 0.01 {
		t.Errorf("5-bit cells should err visibly, got %g", r5)
	}
	if r1 > 0.02 {
		t.Errorf("1-bit cells should be nearly error free, got %g", r1)
	}
}

// TestRowStateDependence checks the observation the data-aware codes build
// on: "a physical row that contains fewer 1s is less susceptible to an
// error" — rows populated with low conductance levels err less.
func TestRowStateDependence(t *testing.T) {
	s := newTestSampler(t, nil)
	light := s.PredictStepProbs([]int{120, 8, 0, 0}).Total()
	heavy := s.PredictStepProbs([]int{0, 0, 8, 120}).Total()
	if light >= heavy {
		t.Fatalf("light row susceptibility %g must be below heavy row %g", light, heavy)
	}
}

// TestPredictMatchesMonteCarlo cross-validates the analytic Section V-B5
// prediction against the sampler on several row states.
func TestPredictMatchesMonteCarlo(t *testing.T) {
	s := newTestSampler(t, func(p *DeviceParams) {
		// Disable the Gaussian terms the analytic model omits.
		p.ProgErrFrac = 0
		p.SampleFreq = 0
	})
	rng := stats.NewRNG(7)
	for _, counts := range [][]int{
		{32, 32, 32, 32},
		{0, 0, 0, 64},
		{0, 100, 20, 8},
	} {
		pred := s.PredictStepProbs(counts)
		const n = 40000
		var got StepProbs
		for i := 0; i < n; i++ {
			switch e := s.SampleError(rng, counts); {
			case e == 1:
				got[0] += 1.0 / n
			case e == -1:
				got[1] += 1.0 / n
			case e >= 2:
				got[2] += 1.0 / n
			case e <= -2:
				got[3] += 1.0 / n
			}
		}
		for i := 0; i < 4; i++ {
			tol := 3*math.Sqrt(pred[i]*(1-pred[i])/n) + 0.01
			if math.Abs(got[i]-pred[i]) > tol {
				t.Errorf("counts=%v idx=%d: MC %g vs predicted %g", counts, i, got[i], pred[i])
			}
		}
	}
}

func TestPredictStepProbsEmptyRow(t *testing.T) {
	s := newTestSampler(t, nil)
	if got := s.PredictStepProbs([]int{0, 0, 0, 0}); got.Total() != 0 {
		t.Fatalf("empty row predicted %v", got)
	}
}

func TestStepProbsTotal(t *testing.T) {
	sp := StepProbs{0.1, 0.2, 0.01, 0.02}
	if math.Abs(sp.Total()-0.33) > 1e-12 {
		t.Fatalf("Total = %g", sp.Total())
	}
}

func TestInjectStuckRate(t *testing.T) {
	p := DefaultDeviceParams()
	p.FailureRate = 0.01
	rng := stats.NewRNG(11)
	total := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		cells := InjectStuck(rng, 128, 128, p)
		total += len(cells)
		for _, c := range cells {
			if c.Row < 0 || c.Row >= 128 || c.Col < 0 || c.Col >= 128 {
				t.Fatalf("cell out of bounds: %+v", c)
			}
			if int(c.Level) >= p.NumLevels() {
				t.Fatalf("stuck level %d out of range", c.Level)
			}
		}
	}
	mean := float64(total) / trials
	want := 0.01 * 128 * 128 // ~164
	if math.Abs(mean-want) > 0.15*want {
		t.Fatalf("mean stuck cells %g, want ~%g", mean, want)
	}
}

func TestInjectStuckZeroRate(t *testing.T) {
	p := DefaultDeviceParams()
	if cells := InjectStuck(stats.NewRNG(1), 10, 10, p); cells != nil {
		t.Fatal("zero failure rate must inject nothing")
	}
}

func TestInjectStuckOrdering(t *testing.T) {
	p := DefaultDeviceParams()
	p.FailureRate = 0.05
	cells := InjectStuck(stats.NewRNG(5), 64, 64, p)
	for i := 1; i < len(cells); i++ {
		prev := cells[i-1].Row*64 + cells[i-1].Col
		cur := cells[i].Row*64 + cells[i].Col
		if cur <= prev {
			t.Fatal("geometric skipping must produce strictly increasing cells")
		}
	}
}
