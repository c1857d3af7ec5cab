package core

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFlatConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  FlatConfig
		want string // substring of the error, "" for valid
	}{
		{"zero value ok", FlatConfig{}, ""},
		{"sane ok", FlatConfig{Hops: 3, MaxNeighbors: 10, HubThreshold: 50, NumReducers: 4}, ""},
		{"negative hops", FlatConfig{Hops: -1}, "Hops"},
		{"negative max neighbors", FlatConfig{MaxNeighbors: -2}, "MaxNeighbors"},
		{"negative hub threshold", FlatConfig{HubThreshold: -1}, "HubThreshold"},
		{"negative mappers", FlatConfig{NumMappers: -1}, "NumMappers"},
		{"negative reducers", FlatConfig{NumReducers: -4}, "NumReducers"},
		{"negative attempts", FlatConfig{MaxAttempts: -1}, "MaxAttempts"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestInferConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  InferConfig
		want string
	}{
		{"zero value ok", InferConfig{}, ""},
		{"negative max neighbors", InferConfig{MaxNeighbors: -1}, "MaxNeighbors"},
		{"negative hub threshold", InferConfig{HubThreshold: -9}, "HubThreshold"},
		{"negative mappers", InferConfig{NumMappers: -2}, "NumMappers"},
		{"negative reducers", InferConfig{NumReducers: -1}, "NumReducers"},
		{"negative attempts", InferConfig{MaxAttempts: -3}, "MaxAttempts"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestTrainConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  TrainConfig
		want string
	}{
		{"zero value ok", TrainConfig{}, ""},
		{"negative batch", TrainConfig{BatchSize: -1}, "BatchSize"},
		{"negative epochs", TrainConfig{Epochs: -5}, "Epochs"},
		{"negative lr", TrainConfig{LR: -0.1}, "LR"},
		{"nan lr", TrainConfig{LR: math.NaN()}, "LR"},
		{"inf lr", TrainConfig{LR: math.Inf(1)}, "LR"},
		{"negative workers", TrainConfig{Workers: -2}, "Workers"},
		{"negative shards", TrainConfig{PSShards: -1}, "PSShards"},
		{"negative agg threads", TrainConfig{AggThreads: -1}, "AggThreads"},
		{"negative eval every", TrainConfig{EvalEvery: -1}, "EvalEvery"},
		{"negative patience", TrainConfig{Patience: -1}, "Patience"},
		{"patience without eval every", TrainConfig{Patience: 3}, "Patience"},
		{"patience with eval every", TrainConfig{Patience: 3, EvalEvery: 2}, ""},
		{"dropout too high", trainCfgDropout(1.0), "Dropout"},
		{"dropout negative", trainCfgDropout(-0.2), "Dropout"},
		{"negative layers", trainCfgLayers(-1), "Layers"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func trainCfgDropout(d float64) TrainConfig {
	c := TrainConfig{}
	c.Model.Dropout = d
	return c
}

func trainCfgLayers(l int) TrainConfig {
	c := TrainConfig{}
	c.Model.Layers = l
	return c
}

// TestValidationErrorTyped table-tests the typed-error mapping: every
// Validate rejection across the pipeline configs is a *ValidationError
// whose Field is the qualified public name, so callers branch on the
// field instead of parsing message strings.
func TestValidationErrorTyped(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		field string
	}{
		{"flat hops", FlatConfig{Hops: -1}.Validate(), "FlatConfig.Hops"},
		{"flat neighbors", FlatConfig{MaxNeighbors: -2}.Validate(), "FlatConfig.MaxNeighbors"},
		{"flat partitions", FlatConfig{Partitions: 3}.Validate(), "FlatConfig.Partitions"},
		{"flat mr knob", FlatConfig{NumReducers: -1}.Validate(), "FlatConfig.NumReducers"},
		{"infer edge targets", InferConfig{EdgeTargets: []EdgeTarget{{Src: 1, Dst: 2}}}.Validate(), "InferConfig.EdgeTargets"},
		{"infer mr knob", InferConfig{MaxAttempts: -1}.Validate(), "InferConfig.MaxAttempts"},
		{"train lr", TrainConfig{LR: math.NaN()}.Validate(), "TrainConfig.LR"},
		{"train dropout", trainCfgDropout(1.5).Validate(), "TrainConfig.Model.Dropout"},
		{"train neg ratio", TrainConfig{NegativeRatio: 2}.Validate(), "TrainConfig.NegativeRatio"},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		var verr *ValidationError
		if !errors.As(tc.err, &verr) {
			t.Errorf("%s: error %T is not a *ValidationError", tc.name, tc.err)
			continue
		}
		if verr.Field != tc.field {
			t.Errorf("%s: Field = %q, want %q", tc.name, verr.Field, tc.field)
		}
		if verr.Reason == "" {
			t.Errorf("%s: empty Reason", tc.name)
		}
		if want := verr.Field + ": " + verr.Reason; tc.err.Error() != want {
			t.Errorf("%s: Error() = %q, want %q", tc.name, tc.err.Error(), want)
		}
	}
}

// TestValidationRejectsBeforeRunning: the pipeline entry points surface
// validation errors instead of clamping.
func TestValidationRejectsBeforeRunning(t *testing.T) {
	if _, err := Flatten(FlatConfig{Hops: -3}, nil, nil); err == nil {
		t.Fatal("Flatten accepted negative Hops")
	}
	if _, err := Infer(InferConfig{NumReducers: -1}, nil, nil); err == nil {
		t.Fatal("Infer accepted negative NumReducers")
	}
	if _, err := Train(TrainConfig{Workers: -1}, nil); err == nil {
		t.Fatal("Train accepted negative Workers")
	}
	if _, err := Train(TrainConfig{Epochs: -1}, nil); err == nil {
		t.Fatal("Train accepted negative Epochs")
	}
}
