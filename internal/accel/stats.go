package accel

import "sync"

// Stats tallies the ECU and error-injection activity of a simulation run.
type Stats struct {
	// RowReads counts simulated physical-row ADC conversions.
	RowReads uint64
	// RowErrors counts reads whose quantized output deviated from ideal.
	RowErrors uint64
	// Clean, Corrected, Detected count ECU outcomes per reduced group
	// read (Figure 9 pipeline results).
	Clean, Corrected, Detected uint64
	// Retries counts re-reads triggered by detected-uncorrectable errors.
	Retries uint64
	// Residual counts decodes whose remainder was nonzero — errors that
	// slipped past (or were reverted by) the ECU.
	Residual uint64
	// SoftMVMs counts matrix-vector products answered by the digital
	// fixed-point fallback path instead of the crossbars (degraded mode
	// after the recovery ladder gives up on a layer's hardware).
	SoftMVMs uint64
	// BatchMVMs counts matrix-vector products evaluated by a multi-image
	// kernel call (each image's MVM counts once; a one-image call counts
	// none, so BatchMVMs / total MVMs is the batched-path coverage).
	BatchMVMs uint64
}

// Merge adds another stats block.
func (s *Stats) Merge(o Stats) {
	s.RowReads += o.RowReads
	s.RowErrors += o.RowErrors
	s.Clean += o.Clean
	s.Corrected += o.Corrected
	s.Detected += o.Detected
	s.Retries += o.Retries
	s.Residual += o.Residual
	s.SoftMVMs += o.SoftMVMs
	s.BatchMVMs += o.BatchMVMs
}

// GroupReads returns the number of ECU-visible group reads in the block.
func (s Stats) GroupReads() uint64 { return s.Clean + s.Corrected + s.Detected }

// DetectedRate returns the fraction of group reads the ECU flagged as
// detected-but-uncorrectable — the health signal the fault monitor watches.
func (s Stats) DetectedRate() float64 {
	reads := s.GroupReads()
	if reads == 0 {
		return 0
	}
	return float64(s.Detected) / float64(reads)
}

// RowErrorRate returns the fraction of row reads that were erroneous.
func (s *Stats) RowErrorRate() float64 {
	if s.RowReads == 0 {
		return 0
	}
	return float64(s.RowErrors) / float64(s.RowReads)
}

// SharedStats is a mutex-guarded Stats accumulator safe for concurrent use,
// so serving workers can fold per-request tallies into one cumulative block
// that a metrics scrape snapshots without stopping the pool.
type SharedStats struct {
	mu sync.Mutex
	s  Stats
}

// Add merges one stats block into the accumulator.
func (ss *SharedStats) Add(o Stats) {
	ss.mu.Lock()
	ss.s.Merge(o)
	ss.mu.Unlock()
}

// Snapshot returns a consistent copy of the accumulated stats.
func (ss *SharedStats) Snapshot() Stats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.s
}

// Restore replaces the accumulated stats — the boot-time restore path
// reinstating a persisted lifetime tally.
func (ss *SharedStats) Restore(s Stats) {
	ss.mu.Lock()
	ss.s = s
	ss.mu.Unlock()
}
