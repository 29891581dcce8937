//go:build !race

// Package race reports whether the binary was built with the race detector.
// Under it sync.Pool drops a quarter of all Puts on purpose and the
// detector's own bookkeeping allocates and slows execution, so allocation
// budgets and timing-based shape checks read Enabled.
package race

// Enabled reports that the race detector is active.
const Enabled = false
