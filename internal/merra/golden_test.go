package merra

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"chaseci/internal/parallel"
)

// goldenSteps cover the generator's corners: every track at age 0 (amp =
// 0), the step before and at a track birth, the last step of the track cycle
// and its wrap, and a step in a later cycle.
var goldenSteps = []int{0, 24, 25, 199, 200, 411}

// goldenVolumeStart and goldenVolumeSteps span the cycle wrap, so the volume
// digest covers a run of steps that straddles it.
const goldenVolumeStart, goldenVolumeSteps = 193, 12

type generatorGolden struct {
	grid   Grid
	seed   uint64
	states [6]string // SHA-256 of State(step) Q, U, V bytes, per goldenSteps
	volume string    // SHA-256 of IVTVolume(goldenVolumeStart, goldenVolumeSteps) bytes
}

// generatorGoldens were recorded from the single-goroutine per-voxel
// synthesis the row synthesizer replaced: the geometries of a connect chain
// (72×48×8), a train_dist job (36×24×4), an odd small grid and a large one.
var generatorGoldens = []generatorGolden{
	{grid: Grid{NLon: 72, NLat: 48, NLev: 8}, seed: 1, states: [6]string{
		"5cb0982b330920362118990bc0d2ea2477a794214a52883ac89e51268ccf0765",
		"c10e0790f5f0608d9bb03eff6f7c20744fef45a61e9b19ea2efcf1b4ffbdc95f",
		"1d45d32f00fe875e9b8326cebad6e1ebd33ec0b49e4427dab4b1ce276d10c2fa",
		"270d0e0d1402b7c0e430d348e596c13568e2d9992d79a00e0ccc50974b501d3d",
		"e0762a9fc43b753c340e46469cc9e64fef562f7296beafe3f596c442014f0c04",
		"d8ec86f5586d3598ab9392cd2e6b9de4a27fe23b4c6e858e319cc0f4feaa232e",
	}, volume: "78817f8a0b02ef6078e96664f41697924108a487f13cb7323794bb3e75996ccf"},
	{grid: Grid{NLon: 36, NLat: 24, NLev: 4}, seed: 7, states: [6]string{
		"81511190a5e0cad5e1408b1f7fa15ecb0f6f160e879addcb19ae9ac4db5db477",
		"5c678f936338ef90599bf7c75433007550e03d01e329af6422758944559bfec2",
		"dfd3189c542f4037736098ced6b136d8fef1619bfaf0759a1167a1806f865c25",
		"25b23c582f17939af5a9b14f4a50fa32c9d4280cc22f4dfabb5180f5f18c45d9",
		"aadf5a17c4245351e55ceafc3feb02ca0809e59bace06d8a616b8735f4e3408d",
		"644515ddef5c9826cebf79757fc15a834c7e3abf81b0bd6cf3b14d26b6266781",
	}, volume: "b7d23382410849b6a6e51a66a3b3fb600c7f5313a52072aebd2795deef735c4b"},
	{grid: Grid{NLon: 13, NLat: 7, NLev: 3}, seed: 1977, states: [6]string{
		"cb6230de328a56cf95fa59a4fef4da5e1843713ada73dec98b6f4d95e9045a83",
		"96d377373a454fc2e49b2a3954260f1f8ab0575aba659776467d04b4a588c2ac",
		"d29d3761e7e7258272d84b7f7313da27c97acaa27f8d9742c33724525b239739",
		"dcc34034e097a06a8bf19b1bef74e1b686b0b630070bb2ebc1fa8173bf51c658",
		"1af30dea5c54e3761f367e097b305c05db79c0d88f6791a53ecd9d1c80aa653e",
		"aad8c6082bb4fb996609e996bb4fdc5d2a52ca062e2e0bf9ed045212a4067450",
	}, volume: "7ca55a8c993902ba8d42978507b1e6a83695c0c493b80b72f3453255c8662818"},
	{grid: Grid{NLon: 96, NLat: 64, NLev: 16}, seed: 3, states: [6]string{
		"4e20326f046fdd59a62948b117dbcb8f7360fd7a79190910118f91c778a97439",
		"4874132c9b07784c6491af5c890e51937410fc7e53fe8be63e69446b39184168",
		"6d6594962cdbf1b2a121ef1d66910f208bf053b3141932647393c7458abad95e",
		"8f4a62ec55daa8f26a75fec4a040990b05ea8f0f7d412cf783ec6406337cd3a1",
		"59a27877575b70fe271008db5278cf01bd4c2300e60e47b7afb264fd98a1c1d2",
		"abab9eab0854f7172c0b9604062053fb3aa378cd65f4e849d49a7f29f9f9b986",
	}, volume: "1fe002bd4544b5882ca1a12743cb0befa3fe0441b4fca00b5eb5dc34fdcc2588"},
}

func digestFloats(fields ...[]float32) string {
	h := sha256.New()
	var b [4]byte
	for _, f := range fields {
		for _, v := range f {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorGolden pins the synthetic atmosphere and the IVT volume
// derived from it byte for byte, at several worker counts: the row-sharded
// synthesis must reproduce the serial per-voxel result exactly.
func TestGeneratorGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, gc := range generatorGoldens {
			t.Run(fmt.Sprintf("%v/workers=%d", gc.grid, workers), func(t *testing.T) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				gen := NewGenerator(gc.grid, gc.seed)
				for i, step := range goldenSteps {
					st := gen.State(step)
					if got := digestFloats(st.Q.Data, st.U.Data, st.V.Data); got != gc.states[i] {
						t.Errorf("State(%d) digest %s, want %s", step, got, gc.states[i])
					}
				}
				vol := IVTVolume(gen, PressureLevels(gc.grid.NLev), goldenVolumeStart, goldenVolumeSteps)
				if got := digestFloats(vol.Data); got != gc.volume {
					t.Errorf("IVTVolume digest %s, want %s", got, gc.volume)
				}
				vol.Release()
			})
		}
	}
}
