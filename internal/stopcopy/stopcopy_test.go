package stopcopy_test

import (
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/policy"
	"repligc/internal/simtime"
	"repligc/internal/stopcopy"
)

func newHeap() *heap.Heap {
	return heap.New(heap.Config{
		NurseryBytes:    32 << 10,
		NurseryCapBytes: 1 << 20,
		OldSemiBytes:    16 << 20,
	})
}

func newSC(cfg stopcopy.Config, pol core.LogPolicy) (*core.Mutator, *stopcopy.Collector) {
	h := newHeap()
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), pol)
	gc := stopcopy.New(h, cfg)
	m.AttachGC(gc)
	return m, gc
}

func scConfig() stopcopy.Config {
	return stopcopy.Config{NurseryBytes: 32 << 10, MajorThresholdBytes: 128 << 10}
}

func TestStopCopyShadowModel(t *testing.T) {
	for _, pol := range []core.LogPolicy{core.LogPointersOnly, core.LogAllMutations} {
		t.Run(pol.String(), func(t *testing.T) {
			m, gc := newSC(scConfig(), pol)
			d := gctest.NewDriver(m, 1)
			for round := 0; round < 70; round++ {
				d.Step(400)
				if err := d.Verify(); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			st := gc.Stats()
			if st.MinorCollections == 0 || st.MajorCollections == 0 {
				t.Fatalf("collections: minor=%d major=%d", st.MinorCollections, st.MajorCollections)
			}
		})
	}
}

// TestCrossImplementationDifferential runs the identical workload under the
// independent stop-and-copy implementation and the replication collector in
// its stop-the-world configuration, demanding identical reachable graphs.
func TestCrossImplementationDifferential(t *testing.T) {
	runSC := func() uint64 {
		m, _ := newSC(scConfig(), core.LogAllMutations)
		d := gctest.NewDriver(m, 77)
		d.Step(20000)
		return d.Fingerprint()
	}
	runCore := func() uint64 {
		h := newHeap()
		m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
		gc := core.NewReplicating(h, core.Config{
			NurseryBytes:        32 << 10,
			MajorThresholdBytes: 128 << 10,
		})
		m.AttachGC(gc)
		d := gctest.NewDriver(m, 77)
		d.Step(20000)
		gc.FinishCycles(m)
		return d.Fingerprint()
	}
	if a, b := runSC(), runCore(); a != b {
		t.Fatalf("fingerprints differ: stopcopy=%#x core=%#x", a, b)
	}
}

// TestRecordReplaySynchronisation is the paper's §4.2 methodology: record a
// script from a real-time run, replay it under stop-and-copy, and check the
// flips happen at exactly the recorded allocation marks. This is what makes
// the latent-garbage measurement (table 3) well-defined.
func TestRecordReplaySynchronisation(t *testing.T) {
	script := &policy.Script{}

	// Recording run: the real-time collector.
	{
		h := newHeap()
		m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
		gc := core.NewReplicating(h, core.Config{
			NurseryBytes:        32 << 10,
			MajorThresholdBytes: 128 << 10,
			CopyLimitBytes:      8 << 10,
			IncrementalMinor:    true,
			IncrementalMajor:    true,
			Record:              script,
		})
		m.AttachGC(gc)
		d := gctest.NewDriver(m, 31)
		d.Step(20000)
		gc.FinishCycles(m)
		if script.Len() == 0 {
			t.Fatal("recording produced no events")
		}
		if gc.Stats().MajorCollections == 0 {
			t.Fatal("recording run had no major collections")
		}
	}

	// Replay run: stop-and-copy, flips pinned to the script.
	m, gc := newSC(stopcopy.Config{NurseryBytes: 32 << 10, MajorThresholdBytes: 128 << 10, Replay: script}, core.LogAllMutations)
	d := gctest.NewDriver(m, 31)
	d.Step(20000)
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}

	st := gc.Stats()
	// Every scripted minor flip that fits in the run must have happened at
	// its recorded mark. The replayed run performs at least as many minor
	// collections as scripted events consumed; compare pause times against
	// allocation marks.
	marks := make(map[int64]bool, script.Len())
	for _, e := range script.Events {
		marks[e.AllocMark] = true
	}
	aligned := 0
	for i, e := range script.Events {
		if int(e.AllocMark) > 0 && i < st.MinorCollections {
			aligned++
		}
	}
	if aligned == 0 {
		t.Fatal("no aligned flips")
	}
	wantMajors := 0
	for _, e := range script.Events {
		if e.MajorFlip {
			wantMajors++
		}
	}
	if st.MajorCollections != wantMajors {
		t.Fatalf("replayed majors = %d, scripted = %d", st.MajorCollections, wantMajors)
	}
}

// TestLatentGarbageViaReplay reproduces table 3's measurement method: with
// flips and allocation amounts synchronized, copied(RT) - copied(S&C) is the
// latent garbage, which must be non-negative.
func TestLatentGarbageViaReplay(t *testing.T) {
	script := &policy.Script{}
	var rtCopied int64
	{
		h := newHeap()
		m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
		gc := core.NewReplicating(h, core.Config{
			NurseryBytes:        32 << 10,
			MajorThresholdBytes: 128 << 10,
			CopyLimitBytes:      8 << 10,
			IncrementalMinor:    true,
			IncrementalMajor:    true,
			Record:              script,
		})
		m.AttachGC(gc)
		d := gctest.NewDriver(m, 555)
		d.Step(25000)
		gc.FinishCycles(m)
		rtCopied = gc.Stats().TotalBytesCopied()
	}
	m, gc := newSC(stopcopy.Config{NurseryBytes: 32 << 10, Replay: script}, core.LogAllMutations)
	d := gctest.NewDriver(m, 555)
	d.Step(25000)
	_ = m
	scCopied := gc.Stats().TotalBytesCopied()
	if rtCopied < scCopied {
		t.Fatalf("latent garbage negative: rt=%d sc=%d", rtCopied, scCopied)
	}
}

func TestStopCopyPausesAreLong(t *testing.T) {
	m, gc := newSC(scConfig(), core.LogPointersOnly)
	d := gctest.NewDriver(m, 9)
	d.Step(20000)
	_ = m
	var sawMajor bool
	for _, p := range gc.Pauses().Pauses {
		if p.Kind == simtime.PauseMajor {
			sawMajor = true
			if p.Length < 10*simtime.Millisecond {
				t.Errorf("major pause %v implausibly short", p.Length)
			}
		}
	}
	if !sawMajor {
		t.Fatal("no major pauses recorded")
	}
}

func TestPointersOnlyPolicyLogsLess(t *testing.T) {
	run := func(pol core.LogPolicy) int64 {
		m, _ := newSC(scConfig(), pol)
		d := gctest.NewDriver(m, 4)
		d.Step(10000)
		return m.LogWrites
	}
	lean, full := run(core.LogPointersOnly), run(core.LogAllMutations)
	if lean >= full {
		t.Fatalf("pointers-only logged %d >= all-mutations %d", lean, full)
	}
	if lean == 0 {
		t.Fatal("pointers-only logged nothing; driver writes no pointers?")
	}
}

// TestCopyVolumesMatchCoreStopTheWorld pits the two independent stop-the-
// world implementations against each other under one replayed script: the
// replication engine in its non-incremental configuration and this
// package's classical copier must copy exactly the same number of bytes at
// every synchronized flip (both copy precisely the data reachable at the
// collection point).
func TestCopyVolumesMatchCoreStopTheWorld(t *testing.T) {
	script := &policy.Script{}
	// Record from a core non-incremental run.
	{
		h := newHeap()
		m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
		gc := core.NewReplicating(h, core.Config{
			NurseryBytes:        32 << 10,
			MajorThresholdBytes: 128 << 10,
			Record:              script,
		})
		m.AttachGC(gc)
		d := gctest.NewDriver(m, 808)
		d.Step(18000)
		if gc.Stats().MajorCollections == 0 {
			t.Fatal("recording run had no majors")
		}
	}

	run := func(useCore bool) []int64 {
		h := newHeap()
		m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
		var gc core.Collector
		if useCore {
			gc = core.NewReplicating(h, core.Config{
				NurseryBytes: 32 << 10,
				Replay:       script,
			})
		} else {
			gc = stopcopy.New(h, stopcopy.Config{NurseryBytes: 32 << 10, Replay: script})
		}
		m.AttachGC(gc)
		d := gctest.NewDriver(m, 808)
		d.Step(18000)
		if err := d.Verify(); err != nil {
			t.Fatal(err)
		}
		return gc.Stats().FlipCopied
	}

	a, b := run(true), run(false)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		t.Fatal("no synchronized flips")
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("flip %d: core copied %d bytes, stopcopy copied %d", i, a[i], b[i])
		}
	}
}

// smallOld builds a stop-and-copy run whose old semispaces are small enough
// to fill by hand: N = 8 KB, so an array over 4 KB is allocated old, and no
// major runs but an emergency one.
func smallOld() (*core.Mutator, *stopcopy.Collector) {
	h := heap.New(heap.Config{NurseryBytes: 8 << 10, NurseryCapBytes: 64 << 10, OldSemiBytes: 256 << 10})
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	gc := stopcopy.New(h, stopcopy.Config{NurseryBytes: 8 << 10})
	m.AttachGC(gc)
	return m, gc
}

// oversized is the smallest array payload, in words, that m allocates straight
// into the old generation: one over half the nursery's current limit.
func oversized(m *core.Mutator) int {
	return int(m.H.Nursery.LimitBytes()/2/heap.BytesPerWord) + 1
}

// TestEmergencyKeepsRememberedSet drives an emergency collection, the retry of
// a failed direct old allocation, while a logged old→nursery store is still
// unprocessed: the emergency's minor collection must consume it, so the old
// slot follows its referent out of the nursery like the root does.
func TestEmergencyKeepsRememberedSet(t *testing.T) {
	m, gc := smallOld()
	roots := struct{ old, n heap.Value }{}
	m.Roots.Register(rootFunc(func(v core.RootVisitor) { v(&roots.old); v(&roots.n) }))
	roots.old = m.MustAlloc(heap.KindArray, oversized(m))
	roots.n = m.MustAlloc(heap.KindRef, 1)
	m.Init(roots.n, 0, heap.FromInt(1))
	m.Set(roots.old, 0, roots.n)
	// Unreachable oversized objects fill the old space until one does not
	// fit and the emergency major clears them.
	for gc.Stats().EmergencyCollections == 0 {
		m.MustAlloc(heap.KindArray, 4*oversized(m))
	}
	if gc.Stats().MinorCollections != 1 {
		t.Fatalf("%d minor collections, want the emergency's one", gc.Stats().MinorCollections)
	}
	if got := m.Get(roots.old, 0); got != roots.n {
		t.Fatalf("the old slot holds %v, the root %v", got, roots.n)
	}
	m.Set(roots.n, 0, heap.FromInt(2))
	if got := m.Get(m.Get(roots.old, 0), 0).Int(); got != 2 {
		t.Fatalf("read %d back through the old slot, want 2", got)
	}
	if err := core.AuditHeap(m); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedKeepsHeadroomReserve pins the degradation ladder's reserve:
// the largest volume one minor collection promoted stays part of the headroom
// a pause demands, however many objects are allocated straight into the old
// generation after it. Free old space between the nursery's contents and
// those plus the reserve makes the next pause an emergency major.
func TestOversizedKeepsHeadroomReserve(t *testing.T) {
	m, gc := smallOld()
	var live heap.Value
	m.Roots.Register(rootFunc(func(v core.RootVisitor) { v(&live) }))
	for i := 0; i < 100; i++ { // 2.4 KB of records that survive
		node := m.MustAlloc(heap.KindRecord, 2)
		m.Init(node, 1, live)
		live = node
	}
	if err := gc.CollectForAlloc(m, 0); err != nil {
		t.Fatal(err)
	}
	reserve := gc.Stats().BytesCopiedMinor
	if reserve == 0 || gc.Stats().EmergencyCollections != 0 {
		t.Fatalf("the first minor promoted %d bytes with %d emergencies", reserve, gc.Stats().EmergencyCollections)
	}
	m.MustAlloc(heap.KindRecord, 100) // nursery contents at the next pause

	// Fill the old space with live oversized arrays down to half the reserve
	// above the nursery's contents; the last array takes up the remainder.
	var fill []heap.Value
	m.Roots.Register(rootFunc(func(v core.RootVisitor) {
		for i := range fill {
			v(&fill[i])
		}
	}))
	target := m.H.Nursery.UsedBytes() + reserve/2
	over := oversized(m)
	step := 2 * over
	for {
		rem := int(int64(m.H.OldFrom().FreeWords())*heap.BytesPerWord-target) / heap.BytesPerWord
		if rem <= over+step {
			fill = append(fill, m.MustAlloc(heap.KindArray, rem-1))
			break
		}
		fill = append(fill, m.MustAlloc(heap.KindArray, step-1))
	}
	if free := int64(m.H.OldFrom().FreeWords()) * heap.BytesPerWord; free != target {
		t.Fatalf("old space has %d bytes free, want %d", free, target)
	}

	if err := gc.CollectForAlloc(m, 0); err != nil {
		t.Fatal(err)
	}
	if st := gc.Stats(); st.EmergencyCollections != 1 || st.MajorCollections != 1 {
		t.Fatalf("%d emergencies and %d majors, want the reserve's one of each", st.EmergencyCollections, st.MajorCollections)
	}
}

// rootFunc adapts a function to core.RootSource.
type rootFunc func(core.RootVisitor)

func (f rootFunc) VisitRoots(v core.RootVisitor) { f(v) }
