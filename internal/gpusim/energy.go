package gpusim

import "time"

// Energy accounting for the NSF requirement the paper opens with:
// "exploitation of new-generation energy efficient NvN [non-von Neumann]
// processors". Each device model carries a board power; workloads can then
// be compared in joules as well as hours, and the NvN model quantifies the
// efficiency argument for the inference-heavy step 3.

// Power draws in watts for the modeled device classes under load.
const (
	Watts1080Ti = 250.0
	WattsCPU    = 85.0
	WattsNvN    = 30.0
)

// PoweredModel pairs a throughput model with its board power.
type PoweredModel struct {
	Model
	Watts float64
}

// Powered1080Ti returns the calibrated 1080ti with its 250 W board power.
func Powered1080Ti() PoweredModel {
	return PoweredModel{Model: GTX1080Ti(), Watts: Watts1080Ti}
}

// PoweredCPU returns the MATLAB-era single CPU at 85 W.
func PoweredCPU() PoweredModel {
	return PoweredModel{Model: SingleCPU(), Watts: WattsCPU}
}

// NvN returns a non-von-Neumann inference accelerator: event-driven
// hardware runs the FFN's sparse flood-fill at about half a 1080ti's
// throughput but at an eighth of the power, and it does not train (gradient
// computation is off-chip). The numbers model the neuromorphic-class parts
// CHASE-CI planned to host; the qualitative claim under test is
// joules-per-voxel, not absolute speed.
func NvN() PoweredModel {
	g := GTX1080Ti()
	return PoweredModel{
		Model: Model{
			Name:              "NvN inference accelerator",
			TrainVoxelsPerSec: 0, // inference-only silicon
			InferVoxelsPerSec: g.InferVoxelsPerSec / 2,
			PrepVoxelsPerSec:  g.PrepVoxelsPerSec,
		},
		Watts: WattsNvN,
	}
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

// KWh converts joules to kilowatt-hours.
func KWh(joules float64) float64 { return joules / 3.6e6 }

// JoulesPerVoxel is the efficiency figure of merit for inference silicon.
func (m PoweredModel) JoulesPerVoxel() float64 {
	if m.InferVoxelsPerSec <= 0 {
		return 0
	}
	return m.Watts / m.InferVoxelsPerSec
}
