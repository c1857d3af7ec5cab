package core

import (
	"fmt"
	"math"

	"agl/internal/gnn"
)

// Validation for the public pipeline configs. Zero values keep their
// "pick a sensible default" meaning (withDefaults), but explicitly
// negative or non-finite inputs — which the defaults used to silently
// clamp or which would quietly misbehave downstream — are rejected before
// any MapReduce round runs.
//
// Every Validate returns a *ValidationError so callers can branch on the
// offending field programmatically instead of parsing error strings.

// ValidationError reports one rejected configuration field. Field is the
// qualified public name ("FlatConfig.Hops"), Reason the violated
// constraint including the offending value. Retrieve it with errors.As:
//
//	var verr *core.ValidationError
//	if errors.As(err, &verr) { switch verr.Field { ... } }
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string { return e.Field + ": " + e.Reason }

// Invalidf builds a ValidationError for field with a formatted reason.
func Invalidf(field, format string, args ...any) error {
	return &ValidationError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate rejects nonsensical GraphFlat parameters.
func (c FlatConfig) Validate() error {
	if c.Hops < 0 {
		return Invalidf("FlatConfig.Hops", "must be >= 1 (0 selects the default), got %d", c.Hops)
	}
	if c.MaxNeighbors < 0 {
		return Invalidf("FlatConfig.MaxNeighbors", "must be >= 0 (0 disables sampling), got %d", c.MaxNeighbors)
	}
	if c.HubThreshold < 0 {
		return Invalidf("FlatConfig.HubThreshold", "must be >= 0 (0 disables re-indexing), got %d", c.HubThreshold)
	}
	for i, p := range c.EdgeTargets {
		if p.Label != 0 && p.Label != 1 {
			return Invalidf("FlatConfig.EdgeTargets",
				"element %d label must be 0 (negative) or 1 (positive), got %d", i, p.Label)
		}
		if p.Src == p.Dst {
			return Invalidf("FlatConfig.EdgeTargets",
				"element %d is a self pair (%d,%d); link prediction needs distinct endpoints", i, p.Src, p.Dst)
		}
	}
	if c.Partitions < 0 {
		return Invalidf("FlatConfig.Partitions", "must be >= 1 (0 selects 1), got %d", c.Partitions)
	}
	if c.Partitions > 0 && c.Output == nil {
		return Invalidf("FlatConfig.Partitions", "requires Output (partitions are part files of the output dataset)")
	}
	return validateMRKnobs("FlatConfig", c.NumMappers, c.NumReducers, c.MaxAttempts)
}

// Validate rejects nonsensical GraphInfer parameters.
func (c InferConfig) Validate() error {
	if c.MaxNeighbors < 0 {
		return Invalidf("InferConfig.MaxNeighbors", "must be >= 0 (0 disables sampling), got %d", c.MaxNeighbors)
	}
	if c.HubThreshold < 0 {
		return Invalidf("InferConfig.HubThreshold", "must be >= 0 (0 disables re-indexing), got %d", c.HubThreshold)
	}
	if len(c.EdgeTargets) > 0 && !c.KeepEmbeddings {
		return Invalidf("InferConfig.EdgeTargets", "requires KeepEmbeddings: offline pair scoring reads final-layer embeddings")
	}
	for i, p := range c.EdgeTargets {
		if p.Src == p.Dst {
			return Invalidf("InferConfig.EdgeTargets",
				"element %d is a self pair (%d,%d); link scoring needs distinct endpoints", i, p.Src, p.Dst)
		}
	}
	return validateMRKnobs("InferConfig", c.NumMappers, c.NumReducers, c.MaxAttempts)
}

// Validate rejects nonsensical GraphTrainer parameters.
func (c TrainConfig) Validate() error {
	if c.BatchSize < 0 {
		return Invalidf("TrainConfig.BatchSize", "must be >= 1 (0 selects the default), got %d", c.BatchSize)
	}
	if c.Epochs < 0 {
		return Invalidf("TrainConfig.Epochs", "must be >= 1 (0 selects the default), got %d", c.Epochs)
	}
	if c.LR < 0 || math.IsNaN(c.LR) || math.IsInf(c.LR, 0) {
		return Invalidf("TrainConfig.LR", "must be a finite value >= 0 (0 selects the default), got %v", c.LR)
	}
	if c.Workers < 0 {
		return Invalidf("TrainConfig.Workers", "must be >= 0 (0 selects the default), got %d", c.Workers)
	}
	if c.PSShards < 0 {
		return Invalidf("TrainConfig.PSShards", "must be >= 0 (0 selects the default), got %d", c.PSShards)
	}
	if c.AggThreads < 0 {
		return Invalidf("TrainConfig.AggThreads", "must be >= 0 (<= 1 aggregates serially), got %d", c.AggThreads)
	}
	if c.EvalEvery < 0 {
		return Invalidf("TrainConfig.EvalEvery", "must be >= 0 (0 scores the final model only), got %d", c.EvalEvery)
	}
	if c.Patience < 0 {
		return Invalidf("TrainConfig.Patience", "must be >= 0 (0 disables early stopping), got %d", c.Patience)
	}
	if c.Patience > 0 && c.EvalEvery == 0 {
		return Invalidf("TrainConfig.Patience", "early stopping needs EvalEvery > 0 (0 scores the final model only), got Patience %d", c.Patience)
	}
	if c.Model.Dropout < 0 || c.Model.Dropout >= 1 {
		return Invalidf("TrainConfig.Model.Dropout", "must be in [0, 1), got %v", c.Model.Dropout)
	}
	if c.Model.Layers < 0 {
		return Invalidf("TrainConfig.Model.Layers", "must be >= 1 (0 selects the default), got %d", c.Model.Layers)
	}
	if !gnn.ValidEdgeHead(c.Model.EdgeHead) {
		return Invalidf("TrainConfig.Model.EdgeHead", "must be one of %q, %q, %q (empty for node tasks), got %q",
			gnn.EdgeHeadDot, gnn.EdgeHeadBilinear, gnn.EdgeHeadMLP, c.Model.EdgeHead)
	}
	if c.NegativeRatio < 0 {
		return Invalidf("TrainConfig.NegativeRatio", "must be >= 1 (0 selects 1), got %d", c.NegativeRatio)
	}
	if c.NegativeRatio > 0 && c.Model.EdgeHead == "" {
		return Invalidf("TrainConfig.NegativeRatio", "is a link-training knob; set Model.EdgeHead or leave it 0")
	}
	return nil
}

func validateMRKnobs(cfg string, mappers, reducers, attempts int) error {
	if mappers < 0 {
		return Invalidf(cfg+".NumMappers", "must be >= 0 (0 selects the default), got %d", mappers)
	}
	if reducers < 0 {
		return Invalidf(cfg+".NumReducers", "must be >= 0 (0 selects the default), got %d", reducers)
	}
	if attempts < 0 {
		return Invalidf(cfg+".MaxAttempts", "must be >= 0 (0 selects the default), got %d", attempts)
	}
	return nil
}
