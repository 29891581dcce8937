//go:build race

package race

// Enabled reports that the race detector is active.
const Enabled = true
