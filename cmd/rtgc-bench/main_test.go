package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.txt from what the command prints")

// runMainEnv, when set, makes the test binary behave as rtgc-bench itself:
// the golden test re-executes the binary with it, so main's flag parsing and
// exit statuses are the command's own.
const runMainEnv = "RTGC_BENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTraceGolden pins what `rtgc-bench -quick -worst 5 trace` prints for the
// three workloads with no -out file asked for: each run's report, its worst
// pauses by phase and the pause-bound line.
func TestTraceGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-quick", "-worst", "5", "trace")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	got, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("rtgc-bench -quick -worst 5 trace: %v\n%s", err, got)
	}
	path := filepath.Join("testdata", "trace_quick.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, string(got), string(want))
}

// TestUnreadFlagIsUsageError: a flag the subcommand does not read is refused
// by name with the usage status, before anything runs — here an experiment,
// which reads -quick only, so no file is written.
func TestUnreadFlagIsUsageError(t *testing.T) {
	dir := t.TempDir()
	out, rec := filepath.Join(dir, "x.json"), filepath.Join(dir, "x.trace")
	cmd := exec.Command(os.Args[0], "-quick", "-out", out, "-record", rec, "-worst", "3", "table2")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	got, err := cmd.CombinedOutput()
	if ee := (*exec.ExitError)(nil); !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2:\n%s", err, got)
	}
	for _, name := range []string{"-out", "-record", "-worst"} {
		if !strings.Contains(string(got), "rtgc-bench: "+name+" has no meaning for table2") {
			t.Errorf("the refusal does not name %s:\n%s", name, got)
		}
	}
	if strings.Contains(string(got), "Table 2") {
		t.Errorf("the experiment ran:\n%s", got)
	}
	for _, f := range []string{out, rec} {
		if _, err := os.Stat(f); err == nil {
			t.Errorf("%s was written", f)
		}
	}
}

// diffLines reports each line of got that is not the golden's.
func diffLines(t *testing.T, got, want string) {
	t.Helper()
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(g) != len(w) {
		t.Fatalf("golden has %d lines, the command printed %d:\n%s", len(w), len(g), got)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("line %d moved:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
}
