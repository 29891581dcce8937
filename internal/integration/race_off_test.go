//go:build !race

package integration

const raceEnabled = false
