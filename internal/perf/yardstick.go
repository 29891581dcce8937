package perf

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed changes under
// it: the same binary measured 51 k and 28 k tokens/s on ring_1k within the
// hour, in stretches of seconds to minutes, with the CPU time per token moving
// in step. No statistic over the windows of one run removes a change that
// lasts longer than the run. So every timed stretch of a run is paired with
// slices of a yardstick — a fixed piece of work that uses none of the
// engine's code — and each time-based end-to-end metric is reported in
// yardstick-normalised time: what was measured, divided by how many times
// slower than nominal the host ran the yardstick right beside it.
//
// A yardstick slice has two parts, timed apart. The socket part writes a
// 1 KiB block to a loopback TCP socket pair and reads it back, on one
// goroutine: the kernel's socket path, with no wake-up in it. The body part is
// user-space work of the workload's own kind: fill-and-checksum passes over
// 1 KiB blocks of a 1 MiB buffer for the token workloads, sequential Life
// steps of one band for life_halo. The host's slow stretches hit the socket
// path harder (up to 1.8x) than user-space code (1.25x), and a workload slows
// down by a mix of the two; its socketShare is the weight that tracked it best
// when weights from 0 to 1 were fitted to minutes of interleaved samples (the
// optimum is flat: 0.25 to 0.5 on the rings and call_fan, 0 on life_halo).
const (
	yardBlock     = 1 << 10
	yardTransfers = 1200 // per slice, about 9 ms

	// Nominal costs: the yardstick's on the reference host (2-vCPU
	// Firecracker VM, Xeon @ 2.1 GHz, Linux 6.18, go1.24) in its quiet state.
	// They only fix the scale: on that host, quiet, normalised time is wall
	// time.
	nominalTransfer = 6800 * time.Nanosecond
)

// yardBody is the body part of a yardstick: reps calls of run per slice,
// each costing nominal on the quiet reference host.
type yardBody struct {
	run     func()
	reps    int
	nominal time.Duration
}

// fillBody is the token workloads' body part: copy a 1 KiB block into the
// next slot of a 1 MiB buffer and checksum it, as a ring's split and merge do.
func fillBody() yardBody {
	var (
		block   = make([]byte, yardBlock)
		scratch = make([]byte, 1<<20)
		off     int
		sink    uint32
	)
	return yardBody{reps: 14400, nominal: 89 * time.Nanosecond, run: func() {
		b := scratch[off : off+yardBlock]
		copy(b, block)
		b[0] = byte(off >> 10)
		sink += crc32.Checksum(b, castagnoli)
		off = (off + yardBlock) % len(scratch)
	}}
}

type yardstick struct {
	w, r        net.Conn
	block       []byte
	body        yardBody
	socketShare float64
	// err is the first error of the socket pair. It sticks: later slices take
	// nothing, and the run that owns the yardstick fails with it at its end.
	err error
}

func newYardstick(body yardBody, socketShare float64) (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	defer ln.Close()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	r, err := ln.Accept()
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	y := &yardstick{w: w, r: r, block: make([]byte, yardBlock), body: body, socketShare: socketShare}
	new(gauge).take(y) // first use: pages touched, socket buffers sized
	if y.err != nil {
		y.close()
		return nil, y.err
	}
	return y, nil
}

func (y *yardstick) close() {
	y.w.Close()
	y.r.Close()
}

// gauge accumulates the yardstick slices taken beside one timed stretch.
type gauge struct {
	socketShare     float64
	transfers, reps int
	socket, body    time.Duration
	nominalRep      time.Duration
}

// take runs one slice: yardTransfers transfers (none when the socket part has
// no weight), then the body's reps. A nil yardstick, or one whose socket pair
// has failed (see yardstick.err), takes nothing.
func (g *gauge) take(y *yardstick) {
	if y == nil || y.err != nil {
		return
	}
	g.socketShare, g.nominalRep = y.socketShare, y.body.nominal
	start := time.Now()
	if y.socketShare > 0 {
		for i := 0; i < yardTransfers; i++ {
			_, err := y.w.Write(y.block)
			if err == nil {
				_, err = io.ReadFull(y.r, y.block)
			}
			if err != nil {
				y.err = fmt.Errorf("yardstick: %w", err)
				return
			}
		}
		g.transfers += yardTransfers
	}
	mid := time.Now()
	for i := 0; i < y.body.reps; i++ {
		y.body.run()
	}
	g.reps += y.body.reps
	g.socket += mid.Sub(start)
	g.body += time.Since(mid)
}

// slowness is how many times slower than nominal the host ran the yardstick:
// 1 on the quiet reference host, above 1 when the host is slow. Dividing a
// measured time by it gives yardstick-normalised time.
func (g gauge) slowness() float64 {
	if g.reps == 0 {
		return 1
	}
	s := (1 - g.socketShare) * ratio(g.body.Seconds()/float64(g.reps), g.nominalRep.Seconds())
	if g.transfers > 0 {
		s += g.socketShare * ratio(g.socket.Seconds()/float64(g.transfers), nominalTransfer.Seconds())
	}
	return s
}
