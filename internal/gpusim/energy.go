package gpusim

import "time"

// Energy accounting for the NSF requirement the paper opens with:
// "exploitation of new-generation energy efficient NvN [non-von Neumann]
// processors". Each device model carries a board power, so a placement can
// be priced in joules as well as hours.

// Watts1080Ti is a 1080ti's board power under load.
const Watts1080Ti = 250.0

// PoweredModel pairs a throughput model with its board power.
type PoweredModel struct {
	Model
	Watts float64
}

// Powered1080Ti returns the calibrated 1080ti with its 250 W board power.
func Powered1080Ti() PoweredModel {
	return PoweredModel{Model: GTX1080Ti(), Watts: Watts1080Ti}
}

// EnergyJoules returns the energy for `devices` boards running for d.
func (m PoweredModel) EnergyJoules(d time.Duration, devices int) float64 {
	return m.Watts * float64(devices) * d.Seconds()
}

// InferEnergyJoules returns the total board energy to infer `voxels` sharded
// evenly over `devices` boards.
func (m PoweredModel) InferEnergyJoules(voxels float64, devices int) float64 {
	if m.InferVoxelsPerSec <= 0 {
		return 0
	}
	d := m.ShardedInferTime(voxels, devices)
	return m.EnergyJoules(d, devices)
}
