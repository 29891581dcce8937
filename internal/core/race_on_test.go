//go:build race

package core

// raceEnabled reports that the race detector is active: sync.Pool then drops
// a quarter of all Puts on purpose, so object counts that rely on pooled
// envelopes and buffers coming back are no longer exact.
const raceEnabled = true
