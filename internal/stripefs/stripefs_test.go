package stripefs

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// callWithin is core.Flowgraph.CallFrom under a context.WithTimeout of d.
func callWithin(g *core.Flowgraph, origin string, tok core.Token, d time.Duration) (core.Token, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return g.CallFrom(ctx, origin, tok)
}

func newFS(t testing.TB, nodes, stores int) *FS {
	t.Helper()
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("fs%d", i)
	}
	app, err := core.NewLocalApp(core.Config{}, names...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	fs, err := New(app, Options{Stores: stores})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i/253)
	}
	return out
}

func TestWriteReadWholeFile(t *testing.T) {
	fs := newFS(t, 3, 3)
	data := pattern(10_000)
	if err := fs.Write("f", data, 1024); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("f", 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read differs from written data")
	}
}

func TestReadRanges(t *testing.T) {
	fs := newFS(t, 2, 4)
	data := pattern(5000)
	if err := fs.Write("f", data, 512); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, n int }{
		{0, 1},       // first byte
		{4999, 1},    // last byte
		{511, 2},     // stripe boundary crossing
		{512, 512},   // exactly one stripe
		{100, 3000},  // many stripes
		{4000, 1000}, // tail, final partial stripe
		{1234, 0},    // empty range
	}
	for _, tc := range cases {
		got, err := fs.Read("f", tc.off, tc.n)
		if err != nil {
			t.Fatalf("Read(%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(got, data[tc.off:tc.off+tc.n]) {
			t.Fatalf("Read(%d,%d) wrong content", tc.off, tc.n)
		}
	}
}

func TestStat(t *testing.T) {
	fs := newFS(t, 2, 2)
	if err := fs.Write("a", pattern(777), 100); err != nil {
		t.Fatal(err)
	}
	size, stripe, err := fs.Stat("a")
	if err != nil {
		t.Fatal(err)
	}
	if size != 777 || stripe != 100 {
		t.Fatalf("stat = %d/%d", size, stripe)
	}
	size, _, err = fs.Stat("missing")
	if err != nil {
		t.Fatal(err)
	}
	if size != -1 {
		t.Fatalf("missing file size = %d", size)
	}
}

func TestOverwrite(t *testing.T) {
	fs := newFS(t, 2, 2)
	if err := fs.Write("f", pattern(2000), 256); err != nil {
		t.Fatal(err)
	}
	newData := bytes.Repeat([]byte{0xEE}, 900)
	if err := fs.Write("f", newData, 128); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("f", 0, 900)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("overwrite not visible")
	}
	size, stripe, _ := fs.Stat("f")
	if size != 900 || stripe != 128 {
		t.Fatalf("stat after overwrite = %d/%d", size, stripe)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := newFS(t, 1, 2)
	if err := fs.Write("empty", nil, 64); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("empty", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestReadOutOfRangeFails(t *testing.T) {
	fs := newFS(t, 1, 1)
	if err := fs.Write("f", pattern(100), 32); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("f", 50, 100); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestUnknownFileFails(t *testing.T) {
	fs := newFS(t, 1, 1)
	if err := fs.Write("exists", pattern(10), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read("ghost", 0, 1); err == nil {
		t.Fatal("expected unknown-file error")
	}
}

func TestManyFiles(t *testing.T) {
	fs := newFS(t, 3, 5)
	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("file-%d", i)
		data := pattern(300*i + 37)
		files[name] = data
		if err := fs.Write(name, data, 64*(i%3+1)); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range files {
		got, err := fs.Read(name, 0, len(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: content differs", name)
		}
	}
}

func TestQuickRangeReads(t *testing.T) {
	fs := newFS(t, 2, 3)
	data := pattern(4096)
	if err := fs.Write("q", data, 200); err != nil {
		t.Fatal(err)
	}
	f := func(offQ, lenQ uint16) bool {
		off := int(offQ) % len(data)
		n := int(lenQ) % (len(data) - off)
		got, err := fs.Read("q", off, n)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFigure5Scenario reproduces the paper's runtime-environment figure:
// two user applications call the parallel striped-file services exposed by
// a third application, over a simulated cluster.
func TestFigure5Scenario(t *testing.T) {
	net := simnet.New(simnet.Config{Bandwidth: 200e6, Latency: 20 * time.Microsecond})
	defer net.Close()

	trs, err := transport.SimNodes(net, "fsn0", "fsn1", "fsn2", "fsn3")
	if err != nil {
		t.Fatal(err)
	}
	fsApp, err := core.NewAppOn(core.Config{}, trs...)
	if err != nil {
		t.Fatal(err)
	}
	defer fsApp.Close()
	fs, err := New(fsApp, Options{Stores: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(64 << 10)
	if err := fs.Write("shared.bin", data, 4<<10); err != nil {
		t.Fatal(err)
	}

	// Two independent client applications, each calling the read service
	// as a leaf operation in its own graph.
	runClient := func(id int) error {
		trs, err := transport.SimNodes(net, fmt.Sprintf("cli%d", id))
		if err != nil {
			return err
		}
		app, err := core.NewAppOn(core.Config{}, trs...)
		if err != nil {
			return err
		}
		defer app.Close()
		tc := core.MustCollection[struct{}](app, "client")
		if err := tc.Map(app.MasterNode()); err != nil {
			return err
		}
		callOp := core.GraphCallOp("call-fs-read", fs.ReadGraph())
		g, err := app.NewFlowgraph("reader", core.Path(core.NewNode(callOp, tc, core.MainRoute())))
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			off := (id*3 + i) * 1000
			out, err := callWithin(g, app.MasterNode(), &ReadReq{Name: "shared.bin", Offset: off, Length: 2000}, 30*time.Second)
			if err != nil {
				return err
			}
			if !bytes.Equal(out.(*ReadResp).Data, data[off:off+2000]) {
				return fmt.Errorf("client %d read %d: wrong content", id, i)
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	go func() { errs <- runClient(1) }()
	go func() { errs <- runClient(2) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
