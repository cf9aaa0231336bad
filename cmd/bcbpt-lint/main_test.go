package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles bcbpt-lint into a temp dir and returns its path
// plus the module root the vet commands should run from.
func buildTool(t *testing.T) (bin, root string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin = filepath.Join(t.TempDir(), "bcbpt-lint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bcbpt-lint")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building bcbpt-lint: %v\n%s", err, out)
	}
	return bin, root
}

// TestVetToolProtocol drives the real `go vet -vettool` unit-check
// protocol (-V=full handshake, per-package *.cfg units, vetx outputs)
// over clean in-tree packages and expects a zero exit.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets packages")
	}
	bin, root := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin,
		"./internal/sim/...", "./internal/measure/...", "./internal/chain/...")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on clean packages failed: %v\n%s", err, out)
	}
}

// TestVetToolSeededViolation proves the vettool path actually fails the
// build when a violation exists: a -overlay adds a file with a
// wall-clock read to repro/internal/sim without touching the tree, and
// go vet must exit nonzero with the detrand message.
func TestVetToolSeededViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets packages")
	}
	bin, root := buildTool(t)

	dir := t.TempDir()
	seed := filepath.Join(dir, "zz_seeded_violation.go")
	src := "package sim\n\nimport \"time\"\n\nfunc zzSeededViolation() time.Time { return time.Now() }\n"
	if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "overlay.json")
	data, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, "internal/sim/zz_seeded_violation.go"): seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "vet", "-overlay="+overlay, "-vettool="+bin, "./internal/sim")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed despite seeded violation:\n%s", out)
	}
	if !strings.Contains(string(out), "wall-clock time.Now") {
		t.Fatalf("vet failed but without the detrand diagnostic:\n%s", out)
	}
}

// TestVetToolLockioViolation seeds an interprocedural violation the same
// way: an overlaid file in repro/internal/fleet reaches file I/O through a
// callee while a mutex is held, and go vet must exit nonzero with the
// lockio message naming the callee — proving the call-graph engine runs
// under the vet protocol too.
func TestVetToolLockioViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets packages")
	}
	bin, root := buildTool(t)

	dir := t.TempDir()
	seed := filepath.Join(dir, "zz_lockio_violation.go")
	src := `package fleet

import (
	"os"
	"sync"
)

var zzMu sync.Mutex

func zzPublish() error { return os.WriteFile("zz", nil, 0o644) }

func zzLockioViolation() error {
	zzMu.Lock()
	defer zzMu.Unlock()
	return zzPublish()
}
`
	if err := os.WriteFile(seed, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "overlay.json")
	data, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, "internal/fleet/zz_lockio_violation.go"): seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "vet", "-overlay="+overlay, "-vettool="+bin, "./internal/fleet")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed despite seeded lockio violation:\n%s", out)
	}
	if !strings.Contains(string(out), "I/O call zzPublish (which reaches os.WriteFile) while zzMu is held") {
		t.Fatalf("vet failed but without the interprocedural lockio diagnostic:\n%s", out)
	}
}

// TestVersionHandshake checks the -V=full line cmd/go parses to
// fingerprint the tool for result caching.
func TestVersionHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	bin, _ := buildTool(t)
	out, err := exec.Command(bin, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatalf("-V=full: %v\n%s", err, out)
	}
	line := strings.TrimSpace(string(out))
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[len(fields)-1], "buildID=") {
		t.Fatalf("malformed -V=full line: %q", line)
	}
	if fields[0] != "bcbpt-lint" {
		t.Fatalf("tool name = %q, want bcbpt-lint", fields[0])
	}
	// The buildID must be stable across invocations (it keys vet's cache).
	out2, err := exec.Command(bin, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(out2) {
		t.Fatalf("-V=full not stable:\n%s\n%s", out, out2)
	}
}
