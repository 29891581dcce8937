//go:build race

package parlife

// raceEnabled reports that the race detector is active: sync.Pool then drops
// a quarter of all Puts on purpose and the detector's own bookkeeping
// allocates, so allocation budgets are widened.
const raceEnabled = true
