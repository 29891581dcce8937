// Package fixture exercises the *Locked call discipline.
package fixture

import "sync"

type buffer struct {
	mu  sync.Mutex
	buf []int
}

func (b *buffer) addLocked(v int) { b.buf = append(b.buf, v) }

func (b *buffer) flushLocked() []int {
	b.addLocked(0) // ok: *Locked sibling on the same receiver
	out := b.buf
	b.buf = nil
	return out
}

func (b *buffer) add(v int) {
	b.mu.Lock()
	b.addLocked(v) // ok: b.mu held
	b.mu.Unlock()
}

func (b *buffer) addDeferred(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addLocked(v) // ok: the deferred unlock releases at return
}

func (b *buffer) addRacy(v int) {
	b.addLocked(v) // want "lockheld: b.addLocked requires b's mutex held"
}

func (b *buffer) addAfterUnlock(v int) {
	b.mu.Lock()
	b.mu.Unlock()
	b.addLocked(v) // want "lockheld: b.addLocked requires b's mutex held"
}

func (b *buffer) addOther(other *buffer, v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	other.addLocked(v) // want "lockheld: other.addLocked requires other's mutex held"
}

func (b *buffer) spawn() {
	go func() {
		b.addLocked(1) // want "lockheld: b.addLocked requires b's mutex held"
	}()
}

func (b *buffer) withLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	func() {
		b.addLocked(2) // ok: literal created and run under the lock
	}()
}

type table struct {
	mu sync.RWMutex
	m  map[int]int
}

func (t *table) getLocked(k int) int { return t.m[k] }

func (t *table) get(k int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.getLocked(k) // ok: read lock held
}

func helperLocked() {}

func callsHelperBare() {
	helperLocked() // want "lockheld: helperLocked is only safe with the lock held"
}

func callsHelperHeld(b *buffer) {
	b.mu.Lock()
	helperLocked() // ok: a lock is held on the path
	b.mu.Unlock()
}
