package kernel

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/trace"
)

// This file is the kernel half of the trace collector: a sampled call's
// spans are buffered per process (core keeps a ring per node runtime), so
// assembling the call's timeline in a multi-kernel deployment means asking
// every kernel for its slice. The protocol rides the controlApp lane like
// remap requests: ctlTraceReq carries the trace ID plus the collector's
// reply coordinates (the collector may be an ephemeral client that is not in
// the name server, so the request seeds the responder's resolve cache), and
// ctlTraceResp carries the responder's spans as JSON. Collection is
// best-effort — a kernel that is down simply contributes nothing, and the
// partial timeline still names every span's node.

// OnTrace installs the hook that serves trace-collection requests: given a
// trace ID it returns the spans this kernel's application(s) buffered for
// it. A serving process typically wires it to dps.App.TraceSpans.
func (k *Kernel) OnTrace(fn func(id uint64) []trace.Span) {
	k.mu.Lock()
	k.onTrace = fn
	k.mu.Unlock()
}

func appendControlTraceReq(b []byte, id uint64, replyName, replyAddr string) []byte {
	return appendStrings(binary.AppendUvarint(b, id), replyName, replyAddr)
}

func decodeControlTraceReq(b []byte) (id uint64, replyName, replyAddr string, err error) {
	id, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, "", "", fmt.Errorf("kernel: malformed trace request")
	}
	err = readStrings(b[n:], &replyName, &replyAddr)
	return id, replyName, replyAddr, err
}

// recvTraceReq serves one collection request: look the spans up through
// the OnTrace hook and send them back as JSON. The reply goes out on its own
// goroutine — the hook walks span rings and must not block the receive loop.
func (k *Kernel) recvTraceReq(_ string, body []byte) {
	id, replyName, replyAddr, err := decodeControlTraceReq(body)
	if err != nil {
		return
	}
	k.mu.Lock()
	k.resolved[replyName] = replyAddr
	fn := k.onTrace
	k.mu.Unlock()
	go func() {
		var spans []trace.Span
		if fn != nil {
			spans = fn(id)
		}
		data, err := json.Marshal(spans)
		if err != nil {
			return
		}
		_ = sendControl(k.node, replyName, ctlTraceResp, append(binary.AppendUvarint(nil, id), data...))
	}()
}

// recvTraceResp feeds a peer's spans to the collection this kernel has in
// flight for that trace ID (CollectTrace), if any.
func (k *Kernel) recvTraceResp(_ string, body []byte) {
	id, n := binary.Uvarint(body)
	if n <= 0 {
		return
	}
	var spans []trace.Span
	if err := json.Unmarshal(body[n:], &spans); err != nil {
		return
	}
	k.mu.Lock()
	ch := k.traceWait[id]
	k.mu.Unlock()
	if ch != nil {
		select {
		case ch <- spans:
		default: // collection already gave up
		}
	}
}

// CollectTrace assembles the cluster-wide timeline of one sampled call:
// this kernel's own spans (OnTrace) plus whatever every name-server peer
// answers within the timeout, sorted into timeline order. Peers that are
// down or slow contribute nothing — a partial timeline is returned rather
// than an error.
func (k *Kernel) CollectTrace(id uint64, timeout time.Duration) ([]trace.Span, error) {
	names, err := ListNames(k.nsAddr)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	fn := k.onTrace
	if k.traceWait == nil {
		k.traceWait = make(map[uint64]chan []trace.Span)
	}
	if _, busy := k.traceWait[id]; busy {
		k.mu.Unlock()
		return nil, fmt.Errorf("kernel: trace %d collection already in flight", id)
	}
	ch := make(chan []trace.Span, len(names))
	k.traceWait[id] = ch
	dead := k.deadPeers
	k.mu.Unlock()
	defer func() {
		k.mu.Lock()
		delete(k.traceWait, id)
		k.mu.Unlock()
	}()

	var out []trace.Span
	if fn != nil {
		out = append(out, fn(id)...)
	}
	req := appendControlTraceReq(nil, id, k.name, k.node.Addr())
	want := 0
	for peer := range names {
		if peer == k.name || dead[peer] {
			continue
		}
		if err := sendControl(k.node, peer, ctlTraceReq, req); err == nil {
			want++
		}
	}
	deadline := time.After(timeout)
wait:
	for i := 0; i < want; i++ {
		select {
		case spans := <-ch:
			out = append(out, spans...)
		case <-deadline:
			break wait
		}
	}
	trace.SortSpans(out)
	return out, nil
}

// CollectTrace assembles the timeline of one sampled call from outside the
// cluster: an ephemeral client (not registered with the name server — its
// coordinates travel in the requests) queries every registered kernel and
// merges the answers, waiting at most timeout for the slowest. It backs
// `dps-kernel -trace-dump`.
func CollectTrace(nsAddr string, id uint64, timeout time.Duration) ([]trace.Span, error) {
	k, err := listen(fmt.Sprintf("trace-client-%d", id), "127.0.0.1:0", nsAddr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = k.node.Close() }()
	return k.CollectTrace(id, timeout)
}
