package rig_test

import (
	"errors"
	"strings"
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/policy"
	"repligc/internal/rig"
	"repligc/internal/trace"
)

// small is a heap a test can afford to build by the dozen.
func small(c rig.Collector) rig.Config {
	return rig.Config{
		Collector:       c,
		Params:          rig.Params{NBytes: 32 << 10, OBytes: 64 << 10, LBytes: 4 << 10},
		OldSemiBytes:    4 << 20,
		NurseryCapBytes: 48 << 10,
	}
}

// TestStatsReadsTheWholeGroup: the report of a four-member run counts every
// member's allocation and log writes, not the first member's, holds the
// collector's whole pause record over the run, and prints each fact on one
// line.
func TestStatsReadsTheWholeGroup(t *testing.T) {
	rc := small(rig.RT)
	rc.Members = 4
	rt, err := rig.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	md, err := gctest.NewMultiDriver(rt.Group, 5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		if err := md.Step(60); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Finish(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	var alloc, writes int64
	for _, m := range rt.Group.Members {
		alloc, writes = alloc+m.BytesAllocated, writes+m.LogWrites
	}
	if st.BytesAllocated != alloc || st.LogWrites != writes || alloc == rt.Mutator.BytesAllocated {
		t.Errorf("report: %d B allocated, %d log writes; the members: %d B, %d writes, the first alone %d B",
			st.BytesAllocated, st.LogWrites, alloc, writes, rt.Mutator.BytesAllocated)
	}
	if n := len(st.Pauses.Pauses); n == 0 || n != st.GC.PauseCount || st.Pauses.Span != st.Elapsed || st.Elapsed != rt.Group.Clock.Now() {
		t.Errorf("report: %d pauses over %v of a %v run, the collector counted %d", n, st.Pauses.Span, st.Elapsed, st.GC.PauseCount)
	}
	text := st.Text("four members")
	for _, label := range []string{"elapsed ", "allocated ", "pauses ", "utilization ", "MMU ", "phase copy ", "log entries ", "largest copy ", "completions ", "log backlog "} {
		if n := strings.Count("\n"+text, "\n"+label); n != 1 {
			t.Errorf("%d lines start with %q:\n%s", n, label, text)
		}
	}
}

// TestGroupHonoursRecorder is the regression test for the field the group
// constructor used to drop: a recorder handed to a four-member runtime must
// see every member's allocation epochs, the heap's log epochs and every
// pause the collector took.
func TestGroupHonoursRecorder(t *testing.T) {
	rc := small(rig.RT)
	rc.Members, rc.Trace = 4, trace.NewRecorder(1<<16)
	rt, err := rig.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Recorder != rc.Trace || len(rt.Group.Members) != 4 || rt.Mutator != rt.Group.Members[0] {
		t.Fatalf("runtime does not carry what it was given: %+v", rt)
	}
	md, err := gctest.NewMultiDriver(rt.Group, 3)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		if err := md.Step(60); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Finish(); err != nil {
		t.Fatal(err)
	}
	if rc.Trace.Dropped() != 0 {
		t.Fatalf("recorder overflowed (%d dropped); the counts below need the whole run", rc.Trace.Dropped())
	}
	actors := map[int64]bool{}
	pauses, logEpochs := 0, 0
	for _, e := range rc.Trace.Events() {
		switch e.Kind {
		case trace.KindAllocEpoch:
			actors[e.A] = true
		case trace.KindPauseEnd:
			pauses++
		case trace.KindLogEpoch:
			logEpochs++
		}
	}
	if len(actors) != 4 {
		t.Errorf("allocation epochs from actors %v, want all four members", actors)
	}
	if want := len(rt.GC.Pauses().Pauses); pauses == 0 || pauses != want {
		t.Errorf("trace holds %d pauses, the collector recorded %d", pauses, want)
	}
	if logEpochs == 0 {
		t.Error("no log epoch reached the recorder: the heap's hook is not wired")
	}
	if err := trace.Validate(rc.Trace.Events()); err != nil {
		t.Error(err)
	}
}

// TestUnsupported walks every refusal New documents (DESIGN.md, "One
// runtime"): each is the typed error naming the collector and the field, and
// none is a runtime that quietly dropped what it was given.
func TestUnsupported(t *testing.T) {
	script := &policy.Script{}
	noLog := rig.RT
	noLog.Log = core.LogPointersOnly
	cases := []struct {
		field string
		mod   func(*rig.Config)
	}{
		{"Log", func(c *rig.Config) { c.Collector = noLog }},
		{"Checkpoint", func(c *rig.Config) { c.Collector, c.Checkpoint = rig.SC, nopCheckpointer{} }},
		{"Checkpoint", func(c *rig.Config) { c.Collector, c.Checkpoint = rig.SCMods, nopCheckpointer{} }},
		{"Checkpoint", func(c *rig.Config) { c.Members, c.Checkpoint = 2, nopCheckpointer{} }},
		{"Record", func(c *rig.Config) { c.Collector, c.Record = rig.SCMods, script }},
		{"NaiveReplay", func(c *rig.Config) { c.Collector, c.NaiveReplay = rig.SC, true }},
		{"Replay", func(c *rig.Config) { c.Replay = script }},
		{"Replay", func(c *rig.Config) { c.Collector, c.Replay = rig.MinorInc, script }},
		{"Replay", func(c *rig.Config) { c.Collector, c.Replay = rig.RTConc, script }},
		{"Record/Replay", func(c *rig.Config) { c.Members, c.Record = 2, script }},
		{"Record/Replay", func(c *rig.Config) { c.Collector, c.Members, c.Replay = rig.SC, 4, script }},
		{"OldSemiBytes/NurseryCapBytes", func(c *rig.Config) {
			c.Heap = heap.New(heap.Config{NurseryBytes: 32 << 10, OldSemiBytes: 1 << 20})
		}},
	}
	for _, tc := range cases {
		rc := small(rig.RT)
		tc.mod(&rc)
		rt, err := rig.New(rc)
		var refused *rig.UnsupportedError
		if !errors.As(err, &refused) {
			t.Errorf("%s on %s: got runtime %v, error %v; want the typed refusal", tc.field, rc.Collector.Name, rt != nil, err)
			continue
		}
		if refused.Field != tc.field || refused.Collector != rc.Collector.Name || refused.Reason == "" {
			t.Errorf("%s on %s: refusal is %+v", tc.field, rc.Collector.Name, refused)
		}
	}

	// What the same fields look like where they are honoured.
	for _, ok := range []func(*rig.Config){
		func(c *rig.Config) { c.Collector, c.Replay = rig.MajorInc, script },
		func(c *rig.Config) { c.Collector, c.Replay = rig.StopCopyCore, script },
		func(c *rig.Config) { c.Collector, c.Replay = rig.SC, script },
		func(c *rig.Config) { c.Record, c.NaiveReplay, c.Checkpoint = script, true, nopCheckpointer{} },
		func(c *rig.Config) {
			c.OldSemiBytes, c.NurseryCapBytes = 0, 0
			c.Heap = heap.New(heap.Config{NurseryBytes: 32 << 10, OldSemiBytes: 1 << 20})
		},
	} {
		rc := small(rig.RT)
		ok(&rc)
		if _, err := rig.New(rc); err != nil {
			t.Errorf("%s: %v", rc.Collector.Name, err)
		}
	}
}

type nopCheckpointer struct{}

func (nopCheckpointer) PauseCheckpoint(*core.Mutator, core.CheckpointPoint) bool { return false }
func (nopCheckpointer) ForceCommit(*core.Mutator, *core.Replicating) error       { return nil }
func (nopCheckpointer) Stats() rig.CheckpointStats                               { return rig.CheckpointStats{} }

// TestTable holds the name table to its contract: nine distinct names, each
// resolving to its own row, the engine's own name for a row agreeing with
// the paper's four where it has one, and anything else refused by name.
func TestTable(t *testing.T) {
	if len(rig.Table) != 9 {
		t.Fatalf("%d rows, want nine", len(rig.Table))
	}
	seen := map[string]bool{}
	for _, row := range rig.Table {
		got, err := rig.Named(row.Name)
		if err != nil || got != row {
			t.Errorf("Named(%q) = %+v, %v", row.Name, got, err)
		}
		if rt, err := rig.New(rig.Config{Collector: got, OldSemiBytes: 1 << 20}); err != nil {
			t.Errorf("New(%q): %v", row.Name, err)
		} else if rt.Collector != row.Name {
			t.Errorf("New(%q) reports collector %q", row.Name, rt.Collector)
		}
		if seen[row.Name] || !strings.Contains(rig.Names(), row.Name) {
			t.Errorf("name %q is duplicated or missing from Names()", row.Name)
		}
		seen[row.Name] = true
		if row.StopCopy != (row.Name == "sc" || row.Name == "sc-mods") {
			t.Errorf("%s: StopCopy = %v", row.Name, row.StopCopy)
		}
		if (row.Log == core.LogPointersOnly) != (row.Name == "sc") {
			t.Errorf("%s: log policy %v", row.Name, row.Log)
		}
		if engine := row.Engine.Name(); !row.StopCopy && engine != row.Name &&
			!(engine == "rt" && strings.HasPrefix(row.Name, "rt-")) && !(engine == "stop-copy(core)" && row.Name == "stop-copy-core") {
			t.Errorf("%s: the engine calls these switches %q", row.Name, engine)
		}
	}
	_, err := rig.Named("bogus")
	var refused *rig.UnsupportedError
	if !errors.As(err, &refused) || refused.Collector != "bogus" || !strings.Contains(err.Error(), "rt-lazy") {
		t.Errorf("Named(bogus) = %v", err)
	}
}

// TestDefaults pins the constructor's defaults: the paper's 50 ms cell, 96 MB
// semispaces and a nursery cap of max(16 N, 16 MB).
func TestDefaults(t *testing.T) {
	rt, err := rig.New(rig.Config{Collector: rig.RT})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Heap
	if got := h.Nursery.LimitBytes(); got != 200<<10 {
		t.Errorf("nursery limit %d, want 200 KB", got)
	}
	if got := int64(h.Nursery.Cap-h.Nursery.Lo) * heap.BytesPerWord; got != 16<<20 {
		t.Errorf("nursery cap %d, want 16 MB", got)
	}
	if got := int64(h.OldFrom().Cap-h.OldFrom().Lo) * heap.BytesPerWord; got != 96<<20 {
		t.Errorf("old semispace %d, want 96 MB", got)
	}
	if len(rt.Group.Members) != 1 || rt.Collector != "rt" || rt.GC.Name() != "rt" {
		t.Errorf("default runtime: %d members, collector %q / %q", len(rt.Group.Members), rt.Collector, rt.GC.Name())
	}
	big, err := rig.New(rig.Config{Collector: rig.SC, Params: rig.Params{NBytes: 2 << 20}, OldSemiBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(big.Heap.Nursery.Cap-big.Heap.Nursery.Lo) * heap.BytesPerWord; got != 32<<20 {
		t.Errorf("nursery cap %d under N = 2 MB, want 16 N", got)
	}
}
