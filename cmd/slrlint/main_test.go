package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixture is a throw-away module with three wall-clock reads: one bare
// (the only finding), one excused by an allow directive, one in a test
// file (never reported).
var fixture = map[string]string{
	"go.mod": "module vetfixture\n\ngo 1.24\n",
	"clock.go": `package clock

import "time"

func Bare() time.Time {
	return time.Now()
}

func Allowed() time.Time {
	//slrlint:allow walltime fixture: a deliberate wall-clock read
	return time.Now()
}
`,
	"clock_test.go": `package clock

import (
	"testing"
	"time"
)

func TestClock(t *testing.T) { _ = time.Now() }
`,
}

// TestVetProtocol drives the built binary the way `make lint` does —
// through `go vet -vettool` — plus the two handshake invocations cmd/go
// makes first. It is the test that fails first if a Go release changes
// the vet unit protocol.
func TestVetProtocol(t *testing.T) {
	dir := t.TempDir()
	tool := filepath.Join(dir, "slrlint")
	if out, err := exec.Command("go", "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building slrlint: %v\n%s", err, out)
	}

	out, err := exec.Command(tool, "-flags").Output()
	if err != nil || strings.TrimSpace(string(out)) != "[]" {
		t.Errorf("-flags = %q, %v; want [] (cmd/go parses it as the tool's JSON flag list)", out, err)
	}
	out, err = exec.Command(tool, "-V=full").Output()
	if shape := regexp.MustCompile(`^slrlint version devel .*buildID=[0-9a-f]{64}\n$`); err != nil || !shape.Match(out) {
		t.Errorf("-V=full = %q, %v; want %s (cmd/go's toolID parses it)", out, err, shape)
	}

	mod := filepath.Join(dir, "mod")
	if err := os.Mkdir(mod, 0o777); err != nil {
		t.Fatal(err)
	}
	for name, src := range fixture {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	vet.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off")
	var stderr bytes.Buffer
	vet.Stderr = &stderr
	if err := vet.Run(); err == nil {
		t.Errorf("go vet succeeded on a module with a bare time.Now()")
	}
	var diags []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.Contains(line, ".go:") {
			diags = append(diags, line)
		}
	}
	const want = "clock.go:6:9: time.Now reads the wall clock"
	if len(diags) != 1 || !strings.Contains(diags[0], want) {
		t.Errorf("go vet reported %q, want exactly one diagnostic containing %q\nfull stderr:\n%s", diags, want, &stderr)
	}
}
