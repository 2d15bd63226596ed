package gpusim

import (
	"testing"
	"time"
)

func TestEnergyBasicAccounting(t *testing.T) {
	m := Powered1080Ti()
	// 50 boards for one hour at 250 W = 12.5 kWh.
	j := m.EnergyJoules(time.Hour, 50)
	if got := KWh(j); got < 12.49 || got > 12.51 {
		t.Fatalf("energy = %v kWh, want 12.5", got)
	}
}

func TestInferEnergyIndependentOfDeviceCount(t *testing.T) {
	// Perfect sharding: halving the time by doubling boards keeps energy
	// constant.
	m := Powered1080Ti()
	w := Paper()
	e50 := m.InferEnergyJoules(w.InferVoxels, 50)
	e100 := m.InferEnergyJoules(w.InferVoxels, 100)
	if diff := (e50 - e100) / e50; diff > 0.001 || diff < -0.001 {
		t.Fatalf("energy changed with device count: %v vs %v", e50, e100)
	}
}

func TestNvNMoreEfficientThanGPU(t *testing.T) {
	gpu, nvn := Powered1080Ti(), NvN()
	if nvn.JoulesPerVoxel() >= gpu.JoulesPerVoxel() {
		t.Fatalf("NvN %v J/voxel not better than GPU %v", nvn.JoulesPerVoxel(), gpu.JoulesPerVoxel())
	}
	// But slower wall-clock at equal device count.
	w := Paper()
	if nvn.ShardedInferTime(w.InferVoxels, 50) <= gpu.ShardedInferTime(w.InferVoxels, 50) {
		t.Fatal("NvN should trade speed for efficiency")
	}
}

func TestNvNCannotTrain(t *testing.T) {
	if NvN().TrainVoxelsPerSec != 0 {
		t.Fatal("NvN modeled as training-capable")
	}
	if NvN().InferEnergyJoules(1e9, 10) <= 0 {
		t.Fatal("NvN inference energy should be positive")
	}
	zero := PoweredModel{}
	if zero.InferEnergyJoules(1e9, 10) != 0 {
		t.Fatal("zero model should report zero energy")
	}
}

func TestStep3EnergyComparison(t *testing.T) {
	// The headline comparison: full step-3 workload on three platforms.
	w := Paper()
	gpu := Powered1080Ti().InferEnergyJoules(w.InferVoxels, 50)
	cpu := PoweredCPU().InferEnergyJoules(w.InferVoxels, 1)
	nvn := NvN().InferEnergyJoules(w.InferVoxels, 50)
	if !(nvn < gpu) {
		t.Fatalf("energy ordering wrong: nvn=%v gpu=%v", KWh(nvn), KWh(gpu))
	}
	// The single CPU is slower AND burns more total energy than the GPU
	// fleet for this workload (40x slower at ~1/3 the per-board power).
	if !(cpu > gpu) {
		t.Fatalf("CPU total energy %v kWh should exceed GPU fleet %v kWh", KWh(cpu), KWh(gpu))
	}
}
