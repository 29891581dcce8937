package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededViolation builds a throwaway module whose one package imports
// the sealed engine directly and runs dps-vet end to end over it: the
// boundary finding must print and the exit code must be non-zero.
func TestSeededViolation(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module vettest\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "app.go"), `package app

import _ "repro/internal/core"
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir, "-syntax-only", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "boundary: import of sealed package repro/internal/core") {
		t.Errorf("stdout = %q, want a boundary finding", stdout.String())
	}
}

// TestRealTreeClean is the acceptance gate: the suite over this repository
// itself, test files included, must produce zero findings.
func TestRealTreeClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", "../..", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("dps-vet on the real tree: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestRulesFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-rules: exit %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"boundary", "lockheld", "poolown"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-rules output missing %q:\n%s", name, stdout.String())
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
