package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
	} {
		t.Run(c.golden, func(t *testing.T) {
			self, err := filepath.Abs(os.Args[0])
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(self, c.args...)
			cmd.Dir = filepath.Join("..", "..") // the examples are named from the repository root
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			got, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("rtgc %v: %v\n%s", c.args, err, got)
			}
			path := filepath.Join("testdata", c.golden)
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
		})
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
