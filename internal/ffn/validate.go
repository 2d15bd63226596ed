package ffn

import "fmt"

// Section III-E3 support ("Hyperparameters and Validation Datasets"): the
// paper separates training from test data ("the training volume is removed
// from the test data volume for all validation metrics"). This file provides
// the split; the evaluation itself is a train_dist job with holdout_steps
// (service.TrainDistHandler), and the parameter sets a sweep fans out over
// are api.SweepParams — ffn does not know that sweeps exist.

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
