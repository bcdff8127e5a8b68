// Package mnn is the public facade of the reproduction of "Making Memristive
// Neural Network Accelerators Reliable" (Feinberg, Wang, Ipek; HPCA 2018):
// data-aware AN/ABN arithmetic error-correcting codes for in-situ analog
// matrix-vector multiplication, together with the full simulated substrate
// the paper's evaluation needs — a bit-sliced memristive crossbar model with
// RTN/programming/fault noise, an ISAAC-style accelerator, a neural-network
// training and inference stack, synthetic MNIST/ILSVRC stand-ins, an
// analytic hardware cost model, and the Monte-Carlo experiment harness that
// regenerates every table and figure of the paper.
//
// Quick start:
//
//	code, _ := mnn.NewStaticCode(16, 3)      // a 16-bit AN code with B=3
//	enc, _ := code.EncodeU64(1234)           // multiply by A*B
//	bad, _ := enc.Add(mnn.Pow2Word(7))       // inject a +2^7 error
//	fixed, status := code.Correct(bad)       // residue lookup + correction
//	val, _ := code.Decode(fixed)             // back to 1234
//	_ = val
//	_ = status
//
// For the full accelerator path, see examples/quickstart and the Engine /
// Session types; for the paper's experiments, see cmd/mnnsim.
package mnn

import (
	"repro/internal/accel"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/crossbar"
	"repro/internal/dataset"
	"repro/internal/expt"
	"repro/internal/hwmodel"
	"repro/internal/nn"
	"repro/internal/noise"
	"repro/internal/serve"
)

// Arithmetic code layer (the paper's primary contribution).
type (
	// Code is an AN or ABN arithmetic error-correcting code.
	Code = core.Code
	// Word is the fixed-width integer the coded datapath runs on.
	Word = core.Word
	// Syndrome is a signed additive error pattern.
	Syndrome = core.Syndrome
	// Table maps residues mod A to correctable syndromes.
	Table = core.Table
	// GroupLayout packs several operands into one coded word.
	GroupLayout = core.GroupLayout
	// DataAwareSpec feeds per-row susceptibility into table construction.
	DataAwareSpec = core.DataAwareSpec
	// RowErr describes one physical row's error probabilities.
	RowErr = core.RowErr
	// CorrectionStatus reports an ECU outcome.
	CorrectionStatus = core.Status
)

// Re-exported code constructors and helpers.
var (
	NewStaticCode       = core.NewStaticCode
	NewStaticTable      = core.NewStaticTable
	MinimalSingleErrorA = core.MinimalSingleErrorA
	BuildDataAwareTable = core.BuildDataAwareTable
	SearchA             = core.SearchA
	CandidateAs         = core.CandidateAs
	HardwareCandidateAs = core.HardwareCandidateAs
	WordFromU64         = core.WordFromU64
	Pow2Word            = core.Pow2Word
	GuardBitsFor        = core.GuardBitsFor
	Hamming84Encode     = core.Hamming84Encode
	Hamming84Decode     = core.Hamming84Decode
	HammingDistance     = core.HammingDistance
)

// ECU outcome values.
const (
	StatusClean     = core.StatusClean
	StatusCorrected = core.StatusCorrected
	StatusDetected  = core.StatusDetected
)

// Device and noise modelling.
type (
	// DeviceParams is the Table I cell and noise configuration.
	DeviceParams = noise.DeviceParams
	// RowSampler draws per-row quantization errors.
	RowSampler = noise.RowSampler
	// StepProbs are per-read small-error probabilities.
	StepProbs = noise.StepProbs
)

var (
	DefaultDeviceParams = noise.DefaultDeviceParams
	NewRowSampler       = noise.NewRowSampler
)

// Crossbar substrate.
type (
	// Array is one multi-level crossbar array.
	Array = crossbar.Array
)

var (
	NewArray        = crossbar.NewArray
	SliceLevelsInto = crossbar.SliceLevelsInto
	ReduceRows      = crossbar.ReduceRows
	InputMasks      = crossbar.InputMasks
)

// Accelerator layer.
type (
	// Scheme selects a protection configuration.
	Scheme = accel.Scheme
	// Config is the accelerator configuration.
	Config = accel.Config
	// Engine is a network mapped onto simulated crossbars.
	Engine = accel.Engine
	// Session is one concurrent evaluation stream.
	Session = accel.Session
	// MappedMatrix is one programmed weight matrix.
	MappedMatrix = accel.MappedMatrix
	// AccelStats tallies ECU activity.
	AccelStats = accel.Stats
	// Scratch is the per-evaluation-stream MVM arena.
	Scratch = accel.Scratch
)

var (
	SchemeNoECC     = accel.SchemeNoECC
	SchemeStatic16  = accel.SchemeStatic16
	SchemeStatic128 = accel.SchemeStatic128
	SchemeABN       = accel.SchemeABN
	ParseScheme     = accel.ParseScheme
	DefaultConfig   = accel.DefaultConfig
	Map             = accel.Map
	MapMatrix       = accel.MapMatrix
	NewScratch      = accel.NewScratch
)

// SharedStats is a concurrency-safe Stats accumulator for serving pools.
type SharedStats = accel.SharedStats

// Serving layer: a batching inference server over a mapped engine.
type (
	// ServeConfig sizes the scheduler pool and admission queue.
	ServeConfig = serve.Config
	// ServeModel names the served network and its input shape.
	ServeModel = serve.Model
	// Server is the HTTP front end (predict/healthz/metrics).
	Server = serve.Server
	// Scheduler is the session-pool batch scheduler.
	Scheduler = serve.Scheduler
	// Prediction is one inference outcome with its ECU telemetry.
	Prediction = serve.Prediction
)

// Serving constructors and admission errors.
var (
	NewServer       = serve.NewServer
	NewScheduler    = serve.NewScheduler
	ErrQueueFull    = serve.ErrQueueFull
	ErrQueueTimeout = serve.ErrQueueTimeout
	ErrServeClosed  = serve.ErrClosed
)

// Neural-network stack and datasets.
type (
	// Network is a sequential model.
	Network = nn.Network
	// Tensor is a dense float tensor.
	Tensor = nn.Tensor
	// Example is one labelled sample.
	Example = nn.Example
	// Dataset is a train/test split.
	Dataset = dataset.Dataset
)

// TrainConfig controls SGD training.
type TrainConfig = nn.TrainConfig

var (
	DefaultTrainConfig = nn.DefaultTrainConfig
	NewMLP1            = nn.NewMLP1
	NewMLP2            = nn.NewMLP2
	NewCNN1            = nn.NewCNN1
	NewMiniAlexNet     = nn.NewMiniAlexNet
	Train              = nn.Train
	Evaluate           = nn.Evaluate
	SynthDigits        = dataset.SynthDigits
	SynthObjects       = dataset.SynthObjects
)

// Circuit transient and hardware model.
type (
	// TransientConfig drives the Figure 7 row simulation.
	TransientConfig = circuit.Config
	// TransientResult is the trace plus error statistics.
	TransientResult = circuit.Result
	// HWOverheads is the Table IV / Section VIII-B summary.
	HWOverheads = hwmodel.Overheads
)

// Floorplan maps network demand onto the tile hierarchy.
type Floorplan = hwmodel.Floorplan

// LatencyModel converts read schedules into inference latency.
type LatencyModel = hwmodel.LatencyModel

// EnergyModel holds per-operation energies for inference accounting.
type EnergyModel = hwmodel.EnergyModel

// ReadCounts are activity counters for energy accounting.
type ReadCounts = hwmodel.ReadCounts

// WeightEncoding selects the negative-weight representation.
type WeightEncoding = accel.WeightEncoding

// Negative-weight encodings.
const (
	EncodingOffsetBinary = accel.EncodingOffsetBinary
	EncodingDifferential = accel.EncodingDifferential
)

var (
	DefaultTransientConfig = circuit.DefaultConfig
	RunTransient           = circuit.Run
	ComputeHWOverheads     = expt.RunTable4
	Default32nm            = hwmodel.Default32nm
	DefaultLatencyModel    = hwmodel.DefaultLatencyModel
	SystemLifetimeYears    = hwmodel.SystemLifetimeYears
	NewBurstTable          = core.NewBurstTable
	MinimalBurstA          = core.MinimalBurstA
	ResidueEfficiency      = core.ResidueEfficiency
)

// Experiment harness.
type (
	// Workload is a trained network plus test set.
	Workload = expt.Workload
	// SweepOptions drives the figure sweeps.
	SweepOptions = expt.SweepOptions
	// CellResult is one Monte-Carlo evaluation cell.
	CellResult = expt.CellResult
	// EvalConfig drives one evaluation cell.
	EvalConfig = expt.EvalConfig
)

var (
	DefaultSweepOptions = expt.DefaultSweepOptions
	RunFig10            = expt.RunFig10
	RunFig11            = expt.RunFig11
	RunFig12            = expt.RunFig12
	RunTable3           = expt.RunTable3
	EvaluateScheme      = expt.EvaluateScheme
	EvaluateSoftware    = expt.EvaluateSoftware
	FigureSchemes       = expt.FigureSchemes
	DigitWorkloads      = expt.DigitWorkloads
	ObjectWorkload      = expt.ObjectWorkload
)
