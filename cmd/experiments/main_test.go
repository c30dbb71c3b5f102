package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the experiments command:
// with EXPERIMENTS_MAIN_ARGS set (one argument per line) it runs main on
// those arguments instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_MAIN_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_MAIN_ARGS="+strings.Join(args, "\n"))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// TestCPUProfileFlag: -cpuprofile writes a gzip-compressed pprof profile
// of the run and leaves the figure output unchanged.
func TestCPUProfileFlag(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	out, errOut, err := runMain(t, "-cpuprofile", prof, "-sets", "2", "-workers", "1", "quantum")
	if err != nil {
		t.Fatalf("experiments -cpuprofile: %v\n%s", err, errOut)
	}
	plain, _, err := runMain(t, "-sets", "2", "-workers", "1", "quantum")
	if err != nil {
		t.Fatal(err)
	}
	if out != plain || !strings.Contains(out, "# Section 4 trade-off") {
		t.Errorf("output with -cpuprofile differs from without:\n%s\nvs\n%s", out, plain)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("profile is not gzip-compressed pprof data (%d bytes)", len(b))
	}
}

// TestCPUProfileBadPath: an unwritable profile path fails the run before
// any figure is computed.
func TestCPUProfileBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	out, errOut, err := runMain(t, "-cpuprofile", bad, "quantum")
	if err == nil {
		t.Fatal("run with an unwritable -cpuprofile path succeeded")
	}
	if out != "" || !strings.Contains(errOut, "cpuprofile:") {
		t.Errorf("stdout %q, stderr %q", out, errOut)
	}
}
