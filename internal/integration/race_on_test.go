//go:build race

package integration

// raceEnabled reports that the race detector is active: sync.Pool then drops
// a quarter of all Puts on purpose, which moves allocation budgets that
// count on pooled buffers coming back.
const raceEnabled = true
