package core

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/race"
)

// classOf is the capacity of the wire-pool class a draw of n bytes comes
// from, worked out apart from pool.go: the smallest power of two from
// minPooledWireBuf up that holds n.
func classOf(n int) int {
	c := minPooledWireBuf
	for c < n {
		c *= 2
	}
	return c
}

// drawBack returns the one of up to 64 draws of n bytes that is the buffer
// whose first byte is at p, or nil. The other draws are not put back, so a
// class is drained as it is searched.
func drawBack(p *byte, n int) []byte {
	for i := 0; i < 64; i++ {
		if b := getWireBuf(&Stats{}, n); unsafe.SliceData(b[:1]) == p {
			return b
		}
	}
	return nil
}

// TestWireBufClasses: a draw of n bytes up to maxClassedWireBuf comes from
// the smallest class that holds n — never a buffer too short, never one of
// a larger class, whatever else was pooled — a put files a buffer under the
// largest class it fills, and every buffer above maxClassedWireBuf shares
// one pool. The last check is the one a single pool failed: a 40-byte ack
// drawn after a 256 KiB buffer was pooled carried the 256 KiB off.
func TestWireBufClasses(t *testing.T) {
	st := &Stats{}
	for n := 1; n <= maxClassedWireBuf; n++ {
		b := getWireBuf(st, n)
		if len(b) != 0 || cap(b) < n || cap(b) >= 2*classOf(n) {
			t.Fatalf("a draw of %d bytes returned len %d cap %d, want empty with cap in [%d, %d)", n, len(b), cap(b), n, 2*classOf(n))
		}
		putWireBuf(b[:n])
	}

	putWireBuf(make([]byte, 0, 256<<10))
	if b := getWireBuf(st, 40); cap(b) > minPooledWireBuf {
		t.Errorf("a 40-byte draw after a 256 KiB buffer was pooled got capacity %d, want at most %d", cap(b), minPooledWireBuf)
	}

	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector: which buffer a draw returns is left to chance")
	}
	if st.WireBufMisses > 2*wireClasses {
		t.Errorf("%d draws with every buffer put back allocated %d times, want about one per class", maxClassedWireBuf, st.WireBufMisses)
	}
	for _, c := range []struct {
		name     string
		capacity int
		from     int // a draw that must find it
		notFrom  int // a draw that must not
	}{
		{"a buffer between classes, under the smaller", 3000, 2 << 10, 3000},
		{"a whole class", 8 << 10, 8 << 10, 8<<10 + 1},
		{"the largest class", maxClassedWireBuf, maxClassedWireBuf, minPooledWireBuf},
		{"above the classes, in the shared pool", 1 << 20, maxClassedWireBuf + 1, maxClassedWireBuf},
		{"above the classes, for any draw it holds", 40 << 10, 36 << 10, 64 << 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			buf := make([]byte, 0, c.capacity)
			p := unsafe.SliceData(buf[:1])
			putWireBuf(buf)
			got := drawBack(p, c.from)
			if got == nil {
				t.Fatalf("a buffer of capacity %d was not filed where a draw of %d bytes looks", c.capacity, c.from)
			}
			putWireBuf(got)
			if drawBack(p, c.notFrom) != nil {
				t.Fatalf("a buffer of capacity %d was drawn for %d bytes", c.capacity, c.notFrom)
			}
		})
	}
}

// TestHopPoolClassedWireBufCycle: a classed wire buffer is pooled as a
// pointer to an array of its class's size, so putWireBuf files it with one
// Put and getWireBuf takes it back with one Get — no holder drawn or
// returned either way — whole: same bytes, the class's capacity, and
// nothing allocated.
func TestHopPoolClassedWireBufCycle(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector: which buffer a draw returns is left to chance")
	}
	for k := 0; k < wireClasses; k++ {
		size := minPooledWireBuf << k
		for wireBufPools[k].Get() != nil {
		}
		b := make([]byte, 0, size)
		p := unsafe.SliceData(b[:1])
		putWireBuf(b)
		v := wireBufPools[k].Get()
		if rv := reflect.ValueOf(v); rv.Kind() != reflect.Pointer || rv.Type().Elem() != reflect.ArrayOf(size, reflect.TypeOf(byte(0))) || rv.UnsafePointer() != unsafe.Pointer(p) {
			t.Fatalf("class %d holds a %T, want the buffer itself as a *[%d]byte", k, v, size)
		}
		wireBufPools[k].Put(v)
		st := &Stats{}
		got := getWireBuf(st, size)
		if unsafe.SliceData(got[:1]) != p || len(got) != 0 || cap(got) != size || st.WireBufMisses != 0 {
			t.Fatalf("class %d drew len %d cap %d (the pooled buffer: %v, %d misses), want the pooled buffer empty with cap %d",
				k, len(got), cap(got), unsafe.SliceData(got[:1]) == p, st.WireBufMisses, size)
		}
		if n := testing.AllocsPerRun(100, func() { putWireBuf(getWireBuf(st, size)) }); n != 0 {
			t.Errorf("a get/put cycle of class %d allocates %.1f objects", k, n)
		}
	}
}
