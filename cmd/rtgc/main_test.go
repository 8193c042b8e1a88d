package main

import (
	"context"
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

// runMainEnv, when set, makes the test binary behave as rtgc itself: the
// golden test re-executes the binary with it, so main's flag parsing and exit
// statuses are the command's own.
const runMainEnv = "RTGC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPauseDigestGolden pins what -stats and -worst print, stdout and stderr in
// the order written, with no -trace file asked for: the run report, the worst
// pauses by phase and the pause-bound line.
func TestPauseDigestGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"sieve.txt", []string{"-worst", "5", "examples/miniml/sieve.ml"}},
		{"life.txt", []string{"-prelude", "-worst", "5", "examples/miniml/life.ml"}},
		{"serve.txt", []string{"-gc", "rt", "-worst", "5", "-serve", "examples/serve/mixed.json"}},
		// Every pause of major-inc forces its minor collection: none had a
		// budget, so none is held to the bound.
		{"major-inc.txt", []string{"-gc", "major-inc", "-n", "64", "-o", "256", "-l", "8", "-worst", "1", "-prelude", "examples/miniml/queens.ml"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			got, code := rtgc(t, c.args...)
			if code != 0 {
				t.Fatalf("rtgc %v: exit %d\n%s", c.args, code, got)
			}
			path := filepath.Join("testdata", c.golden)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			diffLines(t, got, string(want))
		})
	}
}

// TestCheckpointFitsRestore holds -checkpoint to the heaps -restore maps: at
// -old 2031 (with rtgc's 32 MB nursery cap, the largest arena within
// checkpoint.DefaultArenaLimit) the checkpoints restore, and one megabyte more
// is a usage error before anything is written.
func TestCheckpointFitsRestore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if out, code := rtgc(t, "-stats=false", "-old", "2031", "-checkpoint", dir, "examples/miniml/sieve.ml"); code != 0 {
		t.Fatalf("rtgc -old 2031 -checkpoint: exit %d\n%s", code, out)
	}
	if out, code := rtgc(t, "-restore", dir); code != 0 || !strings.Contains(out, "(verified)") {
		t.Fatalf("rtgc -restore of an -old 2031 checkpoint: exit %d\n%s", code, out)
	}
	over := filepath.Join(t.TempDir(), "over")
	out, code := rtgc(t, "-old", "2032", "-checkpoint", over, "examples/miniml/sieve.ml")
	if code != 2 || !strings.Contains(out, "-old 2032") {
		t.Fatalf("rtgc -old 2032 -checkpoint: exit %d, want 2 naming -old\n%s", code, out)
	}
	if _, err := os.Stat(over); !os.IsNotExist(err) {
		t.Fatalf("a refused -checkpoint run left %s behind (%v)", over, err)
	}
}

// rtgc runs the test binary as the command, from the repository root where
// the examples are named, and returns what it printed and its exit status.
func rtgc(t *testing.T, args ...string) (string, int) {
	t.Helper()
	self, err := filepath.Abs(os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	// Killed a second before the test binary's own timeout: a command that
	// loops then fails its test instead of running on, orphaned, after the
	// binary exits.
	ctx := context.Background()
	if d, ok := t.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d.Add(-time.Second))
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
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
