package tcptransport

import (
	"testing"
	"time"
)

// TestStreakRuleInstants pins the streak rule on the instants it is handed,
// with no sleeping: a send of at most smallFrame bytes within streakGap of
// the send before it extends the destination's streak, and the streakLen-th
// such send in a row makes the destination streamed to; a longer gap or a
// larger frame starts the count again. Instants are the node's monotonic
// clock (time since it started), so a fresh peer's first send, at any
// instant, follows no other.
func TestStreakRuleInstants(t *testing.T) {
	type send struct {
		at     time.Duration
		size   int
		stream bool // what noteSendLocked must report
	}
	close4 := func(from time.Duration) []send {
		return []send{
			{from + 1*streakGap, smallFrame, false},
			{from + 2*streakGap, smallFrame, false},
			{from + 3*streakGap, 1, false},
			{from + 4*streakGap, smallFrame, true},
		}
	}
	cat := func(parts ...[]send) (all []send) {
		for _, p := range parts {
			all = append(all, p...)
		}
		return all
	}
	for _, c := range []struct {
		name  string
		sends []send
	}{
		{"a fresh peer's first send at the node's start follows no other",
			cat([]send{{0, 1, false}}, close4(0))},
		{"four sends each within streakGap of the one before stream",
			cat([]send{{time.Second, 1, false}}, close4(time.Second), []send{{time.Second + 4*streakGap + 1, 1, true}})},
		{"a gap one nanosecond over streakGap starts the count again",
			cat([]send{{0, 1, false}}, close4(0)[:3], []send{{4*streakGap + 1, 1, false}}, close4(4*streakGap+1))},
		{"a frame over smallFrame starts the count again",
			cat([]send{{0, 1, false}}, close4(0)[:3], []send{{4 * streakGap, smallFrame + 1, false}}, close4(4*streakGap))},
		{"a streamed destination stops streaming after a long gap",
			cat([]send{{0, 1, false}}, close4(0), []send{{time.Hour, 1, false}})},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := (&Node{}).peer("dst")
			p.mu.Lock()
			defer p.mu.Unlock()
			for i, s := range c.sends {
				if got := p.noteSendLocked(s.at, s.size); got != s.stream {
					t.Fatalf("send %d (%v, %d bytes): streamed to %v, want %v", i, s.at, s.size, got, s.stream)
				}
			}
		})
	}
}
