// Sparse golden determinism: the dense goldens feed every column, so they
// never meet an input bit plane with no active column. This digest pins a
// small convolutional net over zero-padded sparse images, whose MVMs see
// zero patches (every plane of the chunk idle), dead column chunks and
// partially dead planes — one-image and three-image batched, at several
// GOMAXPROCS, under NoECC, Static128 and ABN-9 with stuck and giant cells,
// spares and retries.
//
// Regenerate (only for an intentional, documented model change) with:
//
//	go test -run TestGoldenSparse -update-golden
package mnn

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/accel"
	"repro/internal/nn"
)

const goldenSparsePath = "testdata/golden_sparse.json"

// pipelineRows is the smallest MVM, in word lines, the one-image kernel
// offers to a pipeline helper (accel's pipeMinRows); the fixture's hidden
// dense layer must reach it so the helper path is pinned too.
const pipelineRows = 512

// sparseScheme is one scheme's digest: the one-image images and stats,
// and the stats of the same images evaluated three at a time.
type sparseScheme struct {
	Scheme     string        `json:"scheme"`
	Images     []goldenImage `json:"images"`
	Stats      accel.Stats   `json:"stats"`
	BatchStats accel.Stats   `json:"batch_stats"`
}

type sparseFile struct {
	Note    string         `json:"note"`
	Schemes []sparseScheme `json:"schemes"`
}

// sparseImage is a 12x12 image that is zero except for a 4x4 patch of
// random intensity at (top, left); with lo > 0 the patch holds no zeros.
func sparseImage(rng *rand.Rand, top, left int, lo float64) []float64 {
	x := make([]float64, 12*12)
	for r := top; r < top+4; r++ {
		for c := left; c < left+4; c++ {
			x[r*12+c] = lo + (1-lo)*rng.Float64()
		}
	}
	return x
}

// sparseWorkload builds the trained net (label = the quadrant holding the
// patch) and nine test images, the last of them all zero.
func sparseWorkload() (*nn.Network, []*nn.Tensor) {
	rng := rand.New(rand.NewPCG(5, 5))
	net := &nn.Network{Name: "sparse", InShape: []int{1, 12, 12},
		Layers: []nn.Layer{
			nn.NewConv2D(1, 4, 3, 3, 1, 1, rng), &nn.ReLU{}, // 4 x 12 x 12
			&nn.MaxPool2D{Size: 2}, // 4 x 6 x 6
			&nn.Flatten{},
			nn.NewDense(144, 40, rng), &nn.ReLU{},
			nn.NewDense(40, 4, rng),
		}}
	example := func() ([]float64, int) {
		label := rng.IntN(4)
		top, left := 6*(label/2)+rng.IntN(3), 6*(label%2)+rng.IntN(3)
		return sparseImage(rng, top, left, 0.3), label
	}
	var train []nn.Example
	for i := 0; i < 200; i++ {
		x, label := example()
		train = append(train, nn.Example{Input: nn.FromSlice(x, 1, 12, 12), Label: label})
	}
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = 3
	nn.Train(net, train, cfg)
	var test []*nn.Tensor
	for i := 0; i < 8; i++ {
		x, _ := example()
		if i%3 == 0 {
			// Zeros inside the patch too, so a patch row can be idle.
			x = sparseImage(rng, rng.IntN(9), rng.IntN(9), 0)
		}
		test = append(test, nn.FromSlice(x, 1, 12, 12))
	}
	test = append(test, nn.FromSlice(make([]float64, 12*12), 1, 12, 12))
	return net, test
}

// sparseConfig is goldenConfig with a denser fault population, so the
// tiny arrays still carry stuck and giant cells and the ECU corrects and
// re-reads.
func sparseConfig(s accel.Scheme) accel.Config {
	cfg := goldenConfig(s)
	cfg.Device.FailureRate = 0.01
	cfg.Device.GiantProneProb = 0.01
	return cfg
}

// sparseEval evaluates every test image one at a time and three at a
// time under the current GOMAXPROCS.
func sparseEval(t *testing.T, eng *accel.Engine, name string, test []*nn.Tensor) sparseScheme {
	t.Helper()
	gs := sparseScheme{Scheme: name}
	sess := eng.NewSession(7)
	for i, x := range test {
		seed := uint64(300 + i)
		sess.Reseed(seed)
		logits := sess.Forward(x)
		gs.Images = append(gs.Images, goldenImage{Seed: seed, Pred: logits.ArgMax(), LogitsHash: hashLogits(logits)})
	}
	gs.Stats = sess.DrainStats()
	bsess := eng.NewSession(7)
	for lo := 0; lo < len(test); lo += 3 {
		streams := []uint64{uint64(300 + lo), uint64(301 + lo), uint64(302 + lo)}
		outs, errs := bsess.ForwardBatch(test[lo:lo+3], streams)
		for j, logits := range outs {
			if errs[j] != nil {
				t.Fatalf("%s image %d: %v", name, lo+j, errs[j])
			}
			if h := hashLogits(logits); h != gs.Images[lo+j].LogitsHash {
				t.Fatalf("%s image %d: batched logits %s, one-image %s", name, lo+j, h, gs.Images[lo+j].LogitsHash)
			}
			gs.BatchStats.Merge(bsess.DrainBatchStats(j))
		}
	}
	return gs
}

// computeGoldenSparse evaluates every scheme at GOMAXPROCS 1, 2 and 4 and
// requires the three to agree.
func computeGoldenSparse(t *testing.T) sparseFile {
	t.Helper()
	net, test := sparseWorkload()
	out := sparseFile{Note: "sparse-input digests (zero patches, dead chunks and planes); one-image and B=3 batched at GOMAXPROCS 1/2/4 (-update-golden)"}
	for _, sch := range []accel.Scheme{accel.SchemeNoECC(), accel.SchemeStatic128(), accel.SchemeABN(9)} {
		eng, err := accel.Map(net, sparseConfig(sch))
		if err != nil {
			t.Fatalf("mapping %s: %v", sch.Name, err)
		}
		pipelined := false
		for _, l := range eng.Layers() {
			pipelined = pipelined || eng.Mapped(l).PhysicalRows >= pipelineRows
		}
		if !pipelined {
			t.Fatalf("%s: no layer reaches %d word lines, so no MVM can take a pipeline helper", sch.Name, pipelineRows)
		}
		var ref sparseScheme
		for i, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := sparseEval(t, eng, sch.Name, test)
			runtime.GOMAXPROCS(prev)
			if i == 0 {
				ref = got
			} else if !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s: GOMAXPROCS=%d differs from GOMAXPROCS=1:\n got %+v\nwant %+v", sch.Name, procs, got, ref)
			}
		}
		out.Schemes = append(out.Schemes, ref)
	}
	return out
}

func TestGoldenSparse(t *testing.T) {
	got := computeGoldenSparse(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSparsePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("sparse golden testdata rewritten: %s", goldenSparsePath)
		return
	}
	raw, err := os.ReadFile(goldenSparsePath)
	if err != nil {
		t.Fatalf("reading sparse golden testdata (run with -update-golden to create): %v", err)
	}
	var want sparseFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenSparsePath, err)
	}
	if len(got.Schemes) != len(want.Schemes) {
		t.Fatalf("scheme count %d, golden has %d", len(got.Schemes), len(want.Schemes))
	}
	for i, gs := range got.Schemes {
		ws := want.Schemes[i]
		if gs.Scheme != ws.Scheme {
			t.Fatalf("scheme %d is %s, golden has %s", i, gs.Scheme, ws.Scheme)
		}
		if gs.Stats != ws.Stats || gs.BatchStats != ws.BatchStats {
			t.Errorf("%s: ECU stats diverged from golden:\n got %+v / batched %+v\nwant %+v / batched %+v",
				gs.Scheme, gs.Stats, gs.BatchStats, ws.Stats, ws.BatchStats)
		}
		for j, im := range gs.Images {
			if !reflect.DeepEqual(im, ws.Images[j]) {
				t.Errorf("%s image %d diverged: got %+v, want %+v (RNG draw order changed?)", gs.Scheme, j, im, ws.Images[j])
			}
		}
	}
}
