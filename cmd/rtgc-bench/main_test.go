package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// command is the test binary run as rtgc-bench with args. It is killed a
// second before the test binary's own timeout: a command that loops then
// fails its test instead of running on, orphaned, after the binary exits.
func command(t *testing.T, args ...string) *exec.Cmd {
	ctx := context.Background()
	if d, ok := t.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d.Add(-time.Second))
		t.Cleanup(cancel)
	}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

// TestTraceGolden pins what `rtgc-bench -quick -worst 5 trace` prints for the
// three workloads with no -out file asked for: each run's report, its worst
// pauses by phase and the pause-bound line.
func TestTraceGolden(t *testing.T) {
	cmd := command(t, "-quick", "-worst", "5", "trace")
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

// TestTraceSlicesNestWhenTruncated: in the full-scale Comp trace, read back as
// a reader that turns microseconds into nanoseconds by truncating x*1000
// reads it, every phase slice starts and ends inside its pause's slice.
func TestTraceSlicesNestWhenTruncated(t *testing.T) {
	dir := t.TempDir()
	cmd := command(t, "-out", filepath.Join(dir, "tr.json"), "trace", "Comp")
	if got, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("rtgc-bench -out tr.json trace Comp: %v\n%s", err, got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tr-comp.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Ts       float64
			Dur      float64
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ns := func(us float64) int64 { return int64(us * 1000) }
	var start, end int64
	pauses, phases := 0, 0
	for i, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s, f := ns(e.Ts), ns(e.Ts)+ns(e.Dur)
		if e.Name == "pause" {
			start, end = s, f
			pauses++
			continue
		}
		phases++
		if pauses == 0 || s < start || f > end {
			t.Errorf("event %d, phase %s at [%d, %d] ns, is not inside its pause at [%d, %d] ns", i, e.Name, s, f, start, end)
		}
	}
	if pauses == 0 || phases < pauses {
		t.Fatalf("%d pauses and %d phase slices: the trace is not the one this test reads", pauses, phases)
	}
}

// TestUnreadFlagIsUsageError: a flag the subcommand does not read is refused
// by name with the usage status, before anything runs — here an experiment,
// which reads -quick only, so no file is written.
func TestUnreadFlagIsUsageError(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.json")
	cmd := command(t, "-quick", "-out", out, "-worst", "3", "table2")
	got, err := cmd.CombinedOutput()
	if ee := (*exec.ExitError)(nil); !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2:\n%s", err, got)
	}
	for _, name := range []string{"-out", "-worst"} {
		if !strings.Contains(string(got), "rtgc-bench: "+name+" has no meaning for table2") {
			t.Errorf("the refusal does not name %s:\n%s", name, got)
		}
	}
	if strings.Contains(string(got), "Table 2") {
		t.Errorf("the experiment ran:\n%s", got)
	}
	if _, err := os.Stat(out); err == nil {
		t.Errorf("%s was written", out)
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
