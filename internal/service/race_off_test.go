//go:build !race

package service

// raceEnabled mirrors race_on_test.go for non-race builds.
const raceEnabled = false
