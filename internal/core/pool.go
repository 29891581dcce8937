package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pools for the two per-token allocations of the dispatch hot path: the
// envelope wrapper and the wire buffer. Envelopes cycle strictly inside one
// process (delivered -> dispatched -> executed -> recycled); a post's own
// envelope is not drawn from here but built on the poster's stack and
// borrowed by the send (link.sendToken), so a hop draws one envelope: the
// receiver's, decoded from the frame or copied for a by-pointer delivery.
//
// Wire buffers come in power-of-two classes from minPooledWireBuf to
// maxClassedWireBuf, plus one pool for everything larger. A draw names the
// length of the frame about to be built and comes from the smallest class
// that holds it, so a 40-byte ack never carries off a buffer a large token
// left behind; a miss allocates the class's full capacity, so the buffer
// files back under the same class. A classed buffer is pooled as a pointer
// to an array of the class's size, one pool operation per get or put;
// holders (wireBufHolders) exist only for the buffers above 32 KiB.
//
// A wire buffer has one owner at a time until it dies, and whoever reads it
// last returns it here, exactly once:
//
//   - A sender sizes its frame (header plus the codec's size pass), encodes
//     into a buffer from getWireBuf and hands it to link.transmit. If the
//     transport refuses it, transmit puts it back; otherwise the transport
//     returns it through transport.Releaser (App.AttachTransport points it
//     at putWireBuf) once it has no reader left.
//   - A received frame is only lent to the link, which decodes every token
//     and result by copy and gives nothing back here. A token's bytes are
//     its own, so a user may keep them for ever.

var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

// envelopeGetHook, set only by tests, sees every envelope draw.
var envelopeGetHook atomic.Pointer[func()]

// getEnvelope returns a zeroed envelope.
func getEnvelope() *envelope {
	if hook := envelopeGetHook.Load(); hook != nil {
		(*hook)()
	}
	return envelopePool.Get().(*envelope)
}

// putEnvelope recycles an envelope whose execution has completed. Its frame
// stack goes with it: the stack is held by value, and a spilled array is
// never written once filled, so an envelope copied whole (link.sendToken)
// may share it.
func putEnvelope(e *envelope) {
	*e = envelope{}
	envelopePool.Put(e)
}

// The bounds on what the wire pool keeps.
const (
	// minPooledWireBuf is the smallest class, and so the smallest buffer
	// worth keeping: a pool filled with exact-size 12–60-byte buffers of
	// received acks and group-ends hands them to senders that outgrow them
	// at the first append. Measured when senders first got their buffers
	// back: dps-perf call_fan, 2 cores, 8 s, every size kept 127.6 allocs
	// and 6 888 B per call, from 1 024 up 117.4 and 6 382.
	minPooledWireBuf = 1 << 10
	// maxClassedWireBuf is the largest class and the Go allocator's largest
	// size-classed object: below it a buffer of exactly a frame's length
	// would round up to a size class anyway. From it up the runtime
	// allocates whole pages, and every larger buffer shares one pool.
	maxClassedWireBuf = 32 << 10
	// wireClasses is the number of classes: 1, 2, 4, 8, 16 and 32 KiB.
	wireClasses = 6
	// maxPooledWireBuf bounds the buffers kept for reuse so one giant token
	// does not pin its footprint forever (the pool is also GC-clearable).
	// Chosen with the pool, never measured: no dps-perf workload has a frame
	// above 66 KB.
	maxPooledWireBuf = 8 << 20
)

// wireBufPools[k] for k < wireClasses holds the buffers of class k as
// pointers to arrays of the class's capacity, minPooledWireBuf<<k bytes: a
// pointer goes into a sync.Pool as it is, so a get or a put is one pool
// operation. A buffer between two classes is filed under the smaller and
// comes back with that class's capacity. The last pool holds every buffer
// above maxClassedWireBuf; their capacities vary, so it keeps *[]byte
// holders, which cycle through wireBufHolders: putting a slice in a
// sync.Pool would box its header, one 24-byte allocation per put.
var (
	wireBufPools   [wireClasses + 1]sync.Pool
	wireBufHolders sync.Pool
)

// wireBufPutHook, set only by tests, sees every buffer given to putWireBuf
// before the pool does.
var wireBufPutHook atomic.Pointer[func(b []byte)]

// getWireBuf returns an empty buffer with room for at least n bytes, from
// the smallest class that holds n (any n up to minPooledWireBuf draws the
// smallest class, which is what a control frame passes 0 for), counting
// into st when it had to allocate one.
func getWireBuf(st *Stats, n int) []byte {
	k := 0
	switch {
	case n > maxClassedWireBuf:
		k = wireClasses
	case n > minPooledWireBuf:
		k = bits.Len(uint(n-1)) - bits.Len(minPooledWireBuf-1)
	}
	if v := wireBufPools[k].Get(); v != nil {
		if b := pooledWireBuf(v); cap(b) >= n { // only a buffer of the unclassed pool can be short
			return b
		}
	}
	atomic.AddInt64(&st.WireBufMisses, 1)
	if k < wireClasses {
		n = minPooledWireBuf << k
	}
	return make([]byte, 0, n)
}

// pooledWireBuf is the empty buffer a wire pool entry holds.
func pooledWireBuf(v any) []byte {
	switch p := v.(type) {
	case *[minPooledWireBuf << 0]byte:
		return p[:0]
	case *[minPooledWireBuf << 1]byte:
		return p[:0]
	case *[minPooledWireBuf << 2]byte:
		return p[:0]
	case *[minPooledWireBuf << 3]byte:
		return p[:0]
	case *[minPooledWireBuf << 4]byte:
		return p[:0]
	case *[minPooledWireBuf << 5]byte:
		return p[:0]
	}
	h := v.(*[]byte)
	b := *h
	*h = nil
	wireBufHolders.Put(h)
	return b
}

// putWireBuf recycles a wire buffer once its bytes are fully consumed,
// filed under the largest class it fills. The caller must be the buffer's
// only owner: nothing may read it afterwards.
func putWireBuf(b []byte) {
	if hook := wireBufPutHook.Load(); hook != nil {
		(*hook)(b)
	}
	c := cap(b)
	if c < minPooledWireBuf || c > maxPooledWireBuf {
		return
	}
	if c > maxClassedWireBuf {
		h, _ := wireBufHolders.Get().(*[]byte)
		if h == nil {
			h = new([]byte)
		}
		*h = b[:0]
		wireBufPools[wireClasses].Put(h)
		return
	}
	// The conversions cannot fail: a buffer of class k holds its capacity.
	switch k := bits.Len(uint(c)) - bits.Len(minPooledWireBuf); k {
	case 0:
		wireBufPools[k].Put((*[minPooledWireBuf << 0]byte)(b[:minPooledWireBuf<<0]))
	case 1:
		wireBufPools[k].Put((*[minPooledWireBuf << 1]byte)(b[:minPooledWireBuf<<1]))
	case 2:
		wireBufPools[k].Put((*[minPooledWireBuf << 2]byte)(b[:minPooledWireBuf<<2]))
	case 3:
		wireBufPools[k].Put((*[minPooledWireBuf << 3]byte)(b[:minPooledWireBuf<<3]))
	case 4:
		wireBufPools[k].Put((*[minPooledWireBuf << 4]byte)(b[:minPooledWireBuf<<4]))
	default:
		wireBufPools[k].Put((*[minPooledWireBuf << 5]byte)(b[:minPooledWireBuf<<5]))
	}
}
