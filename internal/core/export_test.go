package core

// SetRehomeHook lets the external tests run fn after a rehome has shipped
// its states and before it awaits their installs (App.rehomeHook).
func SetRehomeHook(app *App, fn func()) { app.rehomeHook = fn }
