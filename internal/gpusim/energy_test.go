package gpusim

import (
	"testing"
	"time"
)

func TestEnergyBasicAccounting(t *testing.T) {
	m := Powered1080Ti()
	// 50 boards for one hour at 250 W = 12.5 kWh.
	j := m.EnergyJoules(time.Hour, 50)
	if kWh := j / 3.6e6; kWh < 12.49 || kWh > 12.51 {
		t.Fatalf("energy = %v kWh, want 12.5", kWh)
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

func TestZeroModelReportsZeroEnergy(t *testing.T) {
	zero := PoweredModel{}
	if zero.InferEnergyJoules(1e9, 10) != 0 {
		t.Fatal("zero model should report zero energy")
	}
}

func TestEnergyJoulesIsBoardsTimesWattsTimesSeconds(t *testing.T) {
	m := Powered1080Ti()
	for _, c := range []struct {
		name    string
		d       time.Duration
		devices int
		want    float64
	}{
		{"one board one second", time.Second, 1, 250},
		{"four boards one minute", time.Minute, 4, 4 * 250 * 60},
		{"no boards", time.Hour, 0, 0},
		{"no time", 0, 50, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := m.EnergyJoules(c.d, c.devices); got != c.want {
				t.Fatalf("EnergyJoules(%v, %d) = %v, want %v", c.d, c.devices, got, c.want)
			}
		})
	}
}

func TestInferEnergyPricesShardedTime(t *testing.T) {
	m := Powered1080Ti()
	w := Paper()
	for _, n := range []int{1, 7, 50} {
		want := m.EnergyJoules(m.ShardedInferTime(w.InferVoxels, n), n)
		if got := m.InferEnergyJoules(w.InferVoxels, n); got != want {
			t.Fatalf("InferEnergyJoules on %d boards = %v, want %v", n, got, want)
		}
	}
}
