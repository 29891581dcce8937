// Package fixture exercises the pooled-value ownership rule with a local
// pool shaped like internal/core's buffer pools.
package fixture

type buf struct{ b []byte }

func getBuf() *buf            { return &buf{} }
func putBuf(*buf)             {}
func decodeBuf(p []byte) *buf { return &buf{b: p} }
func wrap(b *buf) *buf        { return b }

type holder struct{ b *buf }

type framer struct{}

func (framer) frame() *buf { return getBuf() }

func ok() {
	b := getBuf()
	b.b = append(b.b, 1)
	putBuf(b)
}

func useAfterPut() {
	b := getBuf()
	putBuf(b)
	b.b = nil // want "poolown: b used after putBuf\\(b\\) returned it to the pool"
}

func rebound() {
	b := getBuf()
	putBuf(b)
	b = getBuf() // ok: rebound before any use
	putBuf(b)
}

func branches(keep bool) {
	b := getBuf()
	if keep {
		putBuf(b) // ok: puts on distinct branches never poison each other
		return
	}
	putBuf(b)
}

func retainField(h *holder) {
	b := getBuf()
	h.b = b // want "poolown: pooled value b stored into h.b outlives its owner's frame"
	putBuf(b)
}

func retainSlice(dst []*buf) {
	b := getBuf()
	dst[0] = b // want "poolown: pooled value b stored into dst\\[0\\] outlives its owner's frame"
}

func retainDecoded(h *holder) {
	b := decodeBuf(nil)
	h.b = b // want "poolown: pooled value b stored into h.b outlives its owner's frame"
}

func retainDerived(h *holder) {
	b := wrap(getBuf())
	h.b = b // want "poolown: pooled value b stored into h.b outlives its owner's frame"
}

func retainMethod(f framer, h *holder) {
	b := f.frame()
	h.b = b // want "poolown: pooled value b stored into h.b outlives its owner's frame"
}

func capture() {
	b := getBuf()
	go func() {
		putBuf(b) // want "poolown: pooled value b captured by a spawned goroutine"
	}()
}

func handoff() {
	b := getBuf()
	go func(b *buf) {
		putBuf(b) // ok: ownership transferred through the parameter
	}(b)
}
