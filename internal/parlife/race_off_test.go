//go:build !race

package parlife

const raceEnabled = false
