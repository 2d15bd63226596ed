package ffn

import (
	"encoding/json"
	"fmt"
)

// Section III-E3 support ("Hyperparameters and Validation Datasets"): the
// paper separates training from test data ("the training volume is removed
// from the test data volume for all validation metrics") and plans a Redis
// queue of "model training/testing validation split methodologies and
// parameter sets to be used in multi-model validation". This file provides
// the split and the parameter sets; the evaluation itself is a train job
// with holdout_steps (service.TrainHandler), which sweep jobs and core's
// queue-driven sweep both submit.

// Split divides a volume along the time axis: the first trainSteps slices
// train, the rest test. It panics if the split leaves either side empty,
// since that is always a mis-sized experiment.
func Split(img, lbl *Volume, trainSteps int) (trainImg, trainLbl, testImg, testLbl *Volume) {
	if trainSteps <= 0 || trainSteps >= img.D {
		panic(fmt.Sprintf("ffn: Split(%d) on %d-step volume leaves an empty side", trainSteps, img.D))
	}
	cut := trainSteps * img.H * img.W
	mk := func(src *Volume, from, to int, d int) *Volume {
		return &Volume{D: d, H: src.H, W: src.W, Data: src.Data[from:to]}
	}
	return mk(img, 0, cut, trainSteps), mk(lbl, 0, cut, trainSteps),
		mk(img, cut, len(img.Data), img.D-trainSteps), mk(lbl, cut, len(lbl.Data), img.D-trainSteps)
}

// Hyperparams is one candidate configuration for multi-model validation.
type Hyperparams struct {
	LR         float32 `json:"lr"`
	Momentum   float32 `json:"momentum"`
	Features   int     `json:"features"`
	Modules    int     `json:"modules"`
	TrainSteps int     `json:"train_steps"`
}

// Encode serializes the parameter set for the Redis queue.
func (h Hyperparams) Encode() string {
	b, err := json.Marshal(h)
	if err != nil {
		panic(err) // static struct cannot fail to marshal
	}
	return string(b)
}

// DecodeHyperparams parses a queue message back into a parameter set.
func DecodeHyperparams(s string) (Hyperparams, error) {
	var h Hyperparams
	if err := json.Unmarshal([]byte(s), &h); err != nil {
		return Hyperparams{}, fmt.Errorf("ffn: bad hyperparameter message: %w", err)
	}
	return h, nil
}

// Grid expands the cartesian product of candidate values. An empty modules
// list sweeps the historical default depth of 2.
func Grid(lrs []float32, moms []float32, features []int, modules []int, steps []int) []Hyperparams {
	if len(modules) == 0 {
		modules = []int{2}
	}
	var out []Hyperparams
	for _, lr := range lrs {
		for _, m := range moms {
			for _, f := range features {
				for _, mod := range modules {
					for _, s := range steps {
						out = append(out, Hyperparams{
							LR: lr, Momentum: m, Features: f, Modules: mod, TrainSteps: s,
						})
					}
				}
			}
		}
	}
	return out
}

// ValidationResult records one candidate's held-out performance.
type ValidationResult struct {
	Params    Hyperparams `json:"params"`
	TrainLoss float64     `json:"train_loss"`
	Precision float64     `json:"precision"`
	Recall    float64     `json:"recall"`
	F1        float64     `json:"f1"`
	IoU       float64     `json:"iou"`
}

// Better reports whether r beats o on F1 (ties broken by IoU).
func (r ValidationResult) Better(o ValidationResult) bool {
	if r.F1 != o.F1 {
		return r.F1 > o.F1
	}
	return r.IoU > o.IoU
}
