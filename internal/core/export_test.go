package core

import "repro/internal/transport"

// SetRehomeHook lets the external tests run fn after a rehome has shipped
// its states and before it awaits their installs (App.rehomeHook).
func SetRehomeHook(app *App, fn func()) { app.rehomeHook = fn }

// WatchLent wraps tr so that after sees every payload tr lends the
// handler, once the handler has returned (lentWatch).
func WatchLent(tr transport.Transport, after func(p []byte)) transport.Transport {
	return &lentWatch{Transport: tr, after: after}
}

// SetWireBufPutHook lets the external tests see every buffer given to the
// wire pool before the pool does, until the test ends.
func SetWireBufPutHook(t interface{ Cleanup(func()) }, fn func(b []byte)) {
	wireBufPutHook.Store(&fn)
	t.Cleanup(func() { wireBufPutHook.Store(nil) })
}
