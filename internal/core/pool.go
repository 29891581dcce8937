package core

import (
	"sync"
	"sync/atomic"
)

// Pools for the two per-token allocations of the dispatch hot path: the
// envelope wrapper and the wire buffer. Envelopes cycle strictly inside one
// process (posted -> dispatched -> executed -> recycled).
//
// A wire buffer has one owner at a time until it dies, and whoever reads it
// last disposes of it — back here, or to the garbage collector, never both
// and never twice:
//
//   - A sender encodes into a buffer from getWireBuf and hands it to
//     link.transmit. If the transport refuses it, transmit puts it back. If
//     the transport copies it out (tcptransport into the socket, a kernel
//     port into its own frame) the transport is the last reader and returns
//     it through transport.Releaser, which App.AttachTransport points at
//     putWireBuf. On the in-process fabrics the same bytes reach the
//     receiving link, which is then the last reader.
//   - A receiving link owns every frame its handler is given. Frames it
//     decodes by copying go back to the pool when the last field is out.
//     A frame of at least minPooledWireBuf bytes that carries one token and
//     nothing else is decoded in place (link.unmarshalOwned): if the token
//     kept a slice of it, the frame is the token's memory from then on —
//     ordinary garbage-collected memory, which is why a user may hold such
//     a slice for ever — and is never pooled; otherwise it is pooled like
//     the rest.
//   - A transport that would allocate a buffer per received frame borrows
//     the ones for frames under minPooledWireBuf from here instead
//     (transport.Borrower, installed by App.AttachTransport). Such a frame
//     is the receiving link's like any other and comes back through the
//     same putWireBuf; because it may be a buffer many times its length,
//     no frame that short is ever a token's memory.
//
// With the in-process fabrics both ends share this pool, so steady-state
// traffic reuses a small set of buffers sized by the largest token; over
// TCP the sender's own buffers come back after each write and the short
// frames it receives are read into buffers from here.

var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

// getEnvelope returns a zeroed envelope.
func getEnvelope() *envelope {
	return envelopePool.Get().(*envelope)
}

// putEnvelope recycles an envelope whose execution has completed. Its frame
// stack goes with it: no other envelope holds a slice of it (postOut copies
// the frames an output carries on into the output's own envelope).
func putEnvelope(e *envelope) {
	*e = envelope{}
	envelopePool.Put(e)
}

// The bounds on what the wire pool keeps.
const (
	// minPooledWireBuf is the capacity getWireBuf allocates when the pool is
	// empty, and so the smallest buffer worth keeping: a pool filled with
	// exact-size 12–60-byte buffers of received acks and group-ends hands
	// them to senders that outgrow them at the first append. It is also the
	// frame length from which a transport.Borrower reads into a buffer of
	// the frame's own size, and from which a token may keep its frame
	// (link.unmarshalOwned): below it frames sit in buffers from this pool,
	// which every getWireBuf caller may rely on having at least this
	// capacity. Measured when senders first got their buffers back (PR 20):
	// dps-perf call_fan, 2 cores, 8 s, every size kept 127.6 allocs and
	// 6 888 B per call, from 1 024 up 117.4 and 6 382.
	minPooledWireBuf = 1024
	// maxPooledWireBuf bounds the buffers kept for reuse so one giant token
	// does not pin its footprint forever (the pool is also GC-clearable).
	// Chosen with the pool, never measured: no dps-perf workload has a frame
	// above 66 KB.
	maxPooledWireBuf = 8 << 20
)

// wireBufPool holds *[]byte, not []byte: putting a slice in a sync.Pool
// boxes its header, one 24-byte allocation per put, and with the sender's
// put added to the receiver's that is two per frame. The emptied holders
// cycle through wireBufHolders instead (same run as above, every size kept:
// boxed 137.3 allocs per call, holders 127.6).
var wireBufPool, wireBufHolders sync.Pool

// wireBufPutHook, set only by tests, sees every buffer given to putWireBuf
// before the pool does.
var wireBufPutHook atomic.Pointer[func(b []byte)]

// getWireBuf returns an empty buffer with whatever capacity a previous
// message left behind — at least minPooledWireBuf — counting into st when
// it had to allocate one.
func getWireBuf(st *Stats) []byte {
	if v := wireBufPool.Get(); v != nil {
		h := v.(*[]byte)
		b := *h
		*h = nil
		wireBufHolders.Put(h)
		return b
	}
	atomic.AddInt64(&st.WireBufMisses, 1)
	return make([]byte, 0, minPooledWireBuf)
}

// putWireBuf recycles a wire buffer once its bytes are fully consumed. The
// caller must be the buffer's only owner: nothing may read it afterwards,
// and it must not be a frame a decoded token kept a slice of.
func putWireBuf(b []byte) {
	if hook := wireBufPutHook.Load(); hook != nil {
		(*hook)(b)
	}
	if c := cap(b); c < minPooledWireBuf || c > maxPooledWireBuf {
		return
	}
	h, _ := wireBufHolders.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	wireBufPool.Put(h)
}
