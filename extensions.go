package diskpack

import (
	"diskpack/internal/disk"
	"diskpack/internal/model"
	"diskpack/internal/policy"
	"diskpack/internal/trace"
)

// This file exports the extension subsystems built on the paper's
// related-work and future-work sections: dynamic power-management
// policies (Section 2) and the analytic M/G/1 model behind the load
// constraint. Semi-dynamic reorganization (Sections 1 and 6) runs on
// the control plane: see ControllerReorgFull and its siblings.

// Spin-down policy types (see internal/policy).
type (
	// SpinPolicy decides how long a disk idles before spinning down.
	SpinPolicy = disk.SpinPolicy
	// FixedPolicy is a constant idleness threshold (the paper's
	// policy; 2-competitive at the break-even time).
	FixedPolicy = policy.Fixed
	// AdaptivePolicy learns the threshold from observed idle gaps.
	AdaptivePolicy = policy.Adaptive
	// RandomizedPolicy draws timeouts from the optimal e/(e−1)-
	// competitive distribution.
	RandomizedPolicy = policy.Randomized
)

// NewBreakEvenPolicy returns the paper's fixed break-even policy for a
// drive.
func NewBreakEvenPolicy(p DiskParams) *FixedPolicy { return policy.NewBreakEven(p) }

// NewAdaptivePolicy returns an adaptive threshold policy centred on
// the drive's break-even time.
func NewAdaptivePolicy(p DiskParams) *AdaptivePolicy { return policy.NewAdaptive(p) }

// NewRandomizedPolicy returns the randomized e/(e−1)-competitive
// policy.
func NewRandomizedPolicy(p DiskParams, seed int64) *RandomizedPolicy {
	return policy.NewRandomized(p, seed)
}

// Analytic model types (see internal/model).
type (
	// DiskQueue is a per-disk M/G/1 load summary.
	DiskQueue = model.DiskLoad
	// FarmPrediction is the closed-form counterpart of SimResults.
	FarmPrediction = model.FarmPrediction
)

// AnalyzeAllocation computes per-disk M/G/1 statistics for an
// allocation.
func AnalyzeAllocation(files []trace.FileInfo, assign []int, numDisks int, params DiskParams) ([]DiskQueue, error) {
	return model.AnalyzeAssignment(files, assign, numDisks, params)
}

// PredictFarm estimates farm power and response analytically for a
// fixed idleness threshold.
func PredictFarm(loads []DiskQueue, params DiskParams, threshold float64) FarmPrediction {
	return model.PredictFarm(loads, params, threshold)
}

// LoadConstraintForResponse returns the largest load constraint L whose
// predicted M/G/1 mean response stays within budget — the inverse map
// behind the paper's Figure 4.
func LoadConstraintForResponse(budget, meanService, secondMomentService float64) float64 {
	return model.LoadConstraintForResponse(budget, meanService, secondMomentService)
}
