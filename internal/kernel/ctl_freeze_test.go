package kernel

import (
	"bytes"
	"testing"
	"time"
)

// frozenCtlKinds freezes the control-plane kind numbers by row name. Like the
// engine's msg* kinds they are decoded by number by whatever version sits on
// the other end of a rolling restart; renumbering one desynchronizes the
// control plane exactly when it is needed most (remap and death handling).
var frozenCtlKinds = map[string]byte{
	"remap":          1,
	"ping":           2,
	"pong":           3,
	"death":          4,
	"trace request":  5,
	"trace response": 6,
}

func TestCtlKindNumbersFrozen(t *testing.T) {
	got := make(map[string]byte)
	for kind, row := range ctlKinds {
		if row.recv != nil {
			got[row.name] = byte(kind)
		}
	}
	for name, want := range frozenCtlKinds {
		if got[name] != want {
			t.Errorf("%s = %d, frozen as %d: control kinds are decoded by number across versions; never renumber, add new kinds instead", name, got[name], want)
		}
	}
}

// TestCtlKindTableComplete: every frozen kind has a row with a handler and
// its frozen name, every row is frozen, and a byte without a row cannot be
// sent.
func TestCtlKindTableComplete(t *testing.T) {
	frozen := make(map[byte]bool)
	for name, kind := range frozenCtlKinds {
		frozen[kind] = true
		if row := ctlKinds[kind]; row.recv == nil || row.name != name {
			t.Errorf("kind %d: row %q (handler %t), want %q with a handler", kind, row.name, row.recv != nil, name)
		}
	}
	for kind, row := range ctlKinds {
		if (row.recv != nil || row.name != "") && !frozen[byte(kind)] {
			t.Errorf("kind %d (%q) has a row but no frozen number: freeze it before it ships", kind, row.name)
		}
		if row.recv == nil {
			if err := sendControl(nil, "peer", byte(kind), nil); err == nil {
				t.Errorf("kind %d has no row, yet sendControl built a frame for it", kind)
			}
		}
	}
}

// TestControlHostileBytes pushes every kind byte through handleControl and
// through demux under the control app name, each with an empty body, a
// one-byte body and a truncated length-prefixed body: nothing panics, only
// the byte's own row runs, and no malformed request starts a remap or marks
// a peer dead.
func TestControlHostileBytes(t *testing.T) {
	ns := startNS(t)
	k := startKernel(t, ns, "hostile")
	bodies := [][]byte{{}, {0}, {5, 'a', 'b'}}
	// Room for a callback per delivery, so a wrongly started one never blocks.
	remaps := make(chan RemapRequest, 2*len(ctlKinds)*len(bodies)+1)
	failovers := make(chan string, cap(remaps))
	k.OnRemap(func(req RemapRequest) error { remaps <- req; return nil })
	k.OnFailover(func(peer string) { failovers <- peer })

	saved := ctlKinds
	t.Cleanup(func() { ctlKinds = saved })
	var ran []byte // the rows that ran for the current delivery
	for kind, row := range saved {
		if row.recv != nil {
			ctlKinds[kind].recv = func(k *Kernel, src string, body []byte) {
				ran = append(ran, byte(kind))
				row.recv(k, src, body)
			}
		}
	}

	if k.demux("ghost", makeAppFrame(nil, controlApp, nil)); len(ran) != 0 {
		t.Errorf("an empty control payload ran rows %v", ran)
	}
	for kind := 0; kind < len(ctlKinds); kind++ {
		var want []byte
		if saved[kind].recv != nil {
			want = []byte{byte(kind)}
		}
		for _, body := range bodies {
			payload := append([]byte{byte(kind)}, body...)
			for path, deliver := range map[string]func(){
				"handleControl": func() { k.handleControl("ghost", payload) },
				"demux":         func() { k.demux("ghost", makeAppFrame(nil, controlApp, payload)) },
			} {
				ran = nil
				deliver()
				if !bytes.Equal(ran, want) {
					t.Errorf("%s of kind %d body %v ran rows %v, want %v", path, kind, body, ran, want)
				}
			}
		}
	}

	k.mu.Lock()
	dead := len(k.deadPeers)
	k.mu.Unlock()
	if dead != 0 {
		t.Errorf("malformed death notices marked %d peers dead", dead)
	}
	// Remap and failover handlers run on their own goroutines: a well-formed
	// request of each kind follows, and its callback must be the first.
	k.handleControl("ghost", append([]byte{ctlRemap}, appendStrings(nil, "app", "work", "n1")...))
	k.handleControl("ghost", append([]byte{ctlDeath}, appendStrings(nil, "victim")...))
	select {
	case req := <-remaps:
		if req.App != "app" {
			t.Errorf("a malformed request started remap %+v", req)
		}
	case <-time.After(5 * time.Second):
		t.Error("the well-formed remap request started no remap")
	}
	select {
	case peer := <-failovers:
		if peer != "victim" {
			t.Errorf("a malformed death notice failed over %q", peer)
		}
	case <-time.After(5 * time.Second):
		t.Error("the well-formed death notice fired no failover")
	}
}
