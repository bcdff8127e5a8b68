package nn

import (
	"fmt"
	"io"
	"math/rand/v2"
)

// Example is one labelled training or test sample.
type Example struct {
	Input *Tensor
	Label int
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// LRDecay multiplies the learning rate after each epoch (1 = none).
	LRDecay float64
	// Seed shuffles minibatches deterministically.
	Seed uint64
	// Log, when non-nil, receives one progress line per epoch.
	Log io.Writer
}

// DefaultTrainConfig returns a conservative SGD setup.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 5, BatchSize: 32, LR: 0.05, Momentum: 0.9, LRDecay: 0.9, Seed: 1}
}

// Train fits the network to the examples with minibatch SGD + momentum and
// returns the final average training loss.
func Train(n *Network, examples []Example, cfg TrainConfig) float64 {
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.LRDecay == 0 {
		cfg.LRDecay = 1
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	params := n.Params()
	lr := cfg.LR
	lastLoss := 0.0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			for _, p := range params {
				clear(p.Grad)
			}
			for _, idx := range order[start:end] {
				ex := examples[idx]
				logits := n.Forward(ex.Input)
				loss, grad := SoftmaxCrossEntropy(logits, ex.Label)
				epochLoss += loss
				n.Backward(grad)
			}
			scale := lr / float64(end-start)
			for _, p := range params {
				if p.Vel == nil {
					p.Vel = make([]float64, len(p.W))
				}
				for i := range p.W {
					p.Vel[i] = cfg.Momentum*p.Vel[i] - scale*p.Grad[i]
					p.W[i] += p.Vel[i]
				}
			}
		}
		lastLoss = epochLoss / float64(len(order))
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s epoch %d/%d: loss %.4f (lr %.4g)\n", n.Name, epoch+1, cfg.Epochs, lastLoss, lr)
		}
		lr *= cfg.LRDecay
	}
	return lastLoss
}

// Evaluate returns the misclassification rate of the float network on a
// test set — the paper's "Software" column.
func Evaluate(n *Network, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	wrong := 0
	for _, ex := range examples {
		if n.Predict(ex.Input) != ex.Label {
			wrong++
		}
	}
	return float64(wrong) / float64(len(examples))
}

// EvaluateTopK returns the top-k misclassification rate: the fraction of
// examples whose label is absent from the k highest logits.
func EvaluateTopK(n *Network, examples []Example, k int) float64 {
	if len(examples) == 0 {
		return 0
	}
	wrong := 0
	for _, ex := range examples {
		hit := false
		for _, c := range n.Forward(ex.Input).TopK(k) {
			if c == ex.Label {
				hit = true
				break
			}
		}
		if !hit {
			wrong++
		}
	}
	return float64(wrong) / float64(len(examples))
}
