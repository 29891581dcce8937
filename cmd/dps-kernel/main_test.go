package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/dps"
	"repro/internal/kernel"
)

// TestMetricsCarryTransportCounters: both /metrics handlers, a bare
// kernel's and a kernel hosting an application's, export the kernel node's
// socket counters.
func TestMetricsCarryTransportCounters(t *testing.T) {
	ns, err := kernel.StartNameServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	k, err := kernel.Start("metrics", "127.0.0.1:0", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	app, err := dps.Connect(k.Transport("demo"))
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	for name, h := range map[string]http.Handler{"bare kernel": processMetricsHandler(k), "application": appMetricsHandler(app, k)} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		body := rec.Body.String()
		for _, metric := range []string{"writes", "frames_sent", "frames_corked", "cork_timeouts", "reads", "frames_discarded", "dials", "retries"} {
			if !strings.Contains(body, "\ndps_transport_"+metric+"_total ") {
				t.Errorf("%s: no dps_transport_%s_total in\n%s", name, metric, body)
			}
		}
		if name == "application" && !strings.Contains(body, "\ndps_tokens_posted ") {
			t.Errorf("application: the engine counters are missing")
		}
	}
}
