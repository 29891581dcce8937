package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dps"
)

// TestGatewayEndToEnd drives the real thing: an embedded 3-kernel TCP
// deployment behind the HTTP ingress, hit with concurrent POST /call
// requests.
func TestGatewayEndToEnd(t *testing.T) {
	gw, err := newGateway(gatewayConfig{
		nodes:       3,
		deadline:    10 * time.Second,
		maxInflight: 256,
		batch:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/call", "text/plain",
		strings.NewReader("dynamic parallel schedules over tcp kernels"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /call: status %d", resp.StatusCode)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/call", "text/plain",
				strings.NewReader(fmt.Sprintf("concurrent request number %d", i)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			var out strings.Builder
			buf := make([]byte, 256)
			for {
				n, err := resp.Body.Read(buf)
				out.Write(buf[:n])
				if err != nil {
					break
				}
			}
			want := fmt.Sprintf("CONCURRENT REQUEST NUMBER %d\n", i)
			if out.String() != want {
				errs <- fmt.Errorf("request %d: got %q, want %q", i, out.String(), want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	completed := metric(t, metrics, "dps_calls_completed")
	admitted := metric(t, metrics, "dps_calls_admitted")
	if completed < 33 || admitted < 33 {
		t.Fatalf("metrics: completed %v admitted %v, want >= 33 each", completed, admitted)
	}
	if pending := metric(t, metrics, "dps_pending_calls"); pending != 0 {
		t.Fatalf("metrics: %v calls pending after the drain", pending)
	}
}

// metric reads one unlabelled sample off a /metrics exposition.
func metric(t *testing.T, exposition []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(exposition), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("no %s sample in /metrics", name)
	return 0
}

// TestGatewayStatusMapping checks the overload contract of the HTTP edge
// against injected engine errors: budget exhaustion surfaces as 429 with a
// Retry-After, an expired per-call deadline as 504, a vanished client as
// 499, anything else as 500 — and a body over the 1 MiB bound as 413 without
// reaching the engine, never a truncated body answered 200.
func TestGatewayStatusMapping(t *testing.T) {
	gw, err := newGateway(gatewayConfig{nodes: 1, deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()

	cases := []struct {
		name       string
		err        error
		status     int
		retryAfter bool
	}{
		{"overload", fmt.Errorf("dps: graph %q: %w", "gateway-upper", dps.ErrOverload), http.StatusTooManyRequests, true},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{"canceled", context.Canceled, 499, false},
		{"engine", fmt.Errorf("dps: node lost"), http.StatusInternalServerError, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gw.call = func(ctx context.Context, text string) (string, error) { return "", tc.err }
			rec := httptest.NewRecorder()
			gw.handleCall(rec, httptest.NewRequest(http.MethodPost, "/call", strings.NewReader("x")))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d", rec.Code, tc.status)
			}
			if tc.retryAfter && rec.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		})
	}

	gw.call = func(ctx context.Context, text string) (string, error) { return strings.ToUpper(text), nil }
	rec := httptest.NewRecorder()
	gw.handleCall(rec, httptest.NewRequest(http.MethodGet, "/call", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /call: status %d, want 405", rec.Code)
	}

	t.Run("too-large", func(t *testing.T) {
		called := false
		gw.call = func(ctx context.Context, text string) (string, error) { called = true; return text, nil }
		rec := httptest.NewRecorder()
		gw.handleCall(rec, httptest.NewRequest(http.MethodPost, "/call", strings.NewReader(strings.Repeat("x", 2<<20))))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("2 MiB body: status %d, want 413", rec.Code)
		}
		if called {
			t.Fatal("a truncated body reached the engine")
		}
		rec = httptest.NewRecorder()
		gw.handleCall(rec, httptest.NewRequest(http.MethodPost, "/call", strings.NewReader(strings.Repeat("x", maxCallBody))))
		if rec.Code != http.StatusOK || rec.Body.Len() != maxCallBody+1 {
			t.Fatalf("body of exactly the bound: status %d, %d bytes back", rec.Code, rec.Body.Len())
		}
	})
}

// TestGatewayOverloadSheds saturates a budget of one with concurrent
// requests and requires the real admission path to shed with 429 while
// accepted calls complete with 200 — the overload contract end to end.
func TestGatewayOverloadSheds(t *testing.T) {
	gw, err := newGateway(gatewayConfig{
		nodes:       1,
		deadline:    5 * time.Second,
		maxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.close()
	srv := httptest.NewServer(gw.handler())
	defer srv.Close()

	var sawOK, sawShed bool
	for round := 0; round < 50 && !(sawOK && sawShed); round++ {
		codes := make(chan int, 16)
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/call", "text/plain",
					strings.NewReader("saturate the single slot"))
				if err != nil {
					codes <- -1
					return
				}
				resp.Body.Close()
				codes <- resp.StatusCode
			}()
		}
		wg.Wait()
		close(codes)
		for code := range codes {
			switch code {
			case http.StatusOK:
				sawOK = true
			case http.StatusTooManyRequests:
				sawShed = true
			default:
				t.Fatalf("status %d, want 200 or 429", code)
			}
		}
	}
	if !sawOK || !sawShed {
		t.Fatalf("16-way concurrency on a budget of one: ok=%v shed=%v, want both", sawOK, sawShed)
	}
	if pending := gw.app.PendingCalls(); pending != 0 {
		t.Fatalf("%d calls pending after the drain", pending)
	}
}
