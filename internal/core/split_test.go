package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repligc/internal/core"
	"repligc/internal/faultinject"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/vm"
)

// growingRoots is a root table that only grows: what it holds is immortal.
type growingRoots struct{ slots []heap.Value }

func (r *growingRoots) VisitRoots(v core.RootVisitor) {
	for i := range r.slots {
		v(&r.slots[i])
	}
}

// splitConfig is rt with a nursery that never fills on its own during the
// immortal stream's allocation phases, so the stream decides when pauses
// happen, and an L small enough that its large objects take many of them.
func splitConfig() core.Config {
	return core.Config{
		NurseryBytes:        64 << 10,
		MajorThresholdBytes: 8 << 10,
		CopyLimitBytes:      512,
		IncrementalMinor:    true,
		IncrementalMajor:    true,
	}
}

// immortalStream is an operation stream whose copy volume does not depend on
// the collector's schedule: nothing it allocates ever dies, it allocates only
// while the collector is quiescent, and while a collection is running —
// driven to quiescence one pause at a time — it only stores rooted pointers,
// integers and bytes into the large objects, at fixed spots near both ends. So the
// minor generation copies exactly what the nursery held and every major
// exactly what old-from held when it began, however the copies were chunked.
// seams sets the collector's test seams before the stream starts. It returns
// the graph digest, the collector's statistics and whether any pause left a
// copy in flight with stores landing on both sides of its cursor.
func immortalStream(t *testing.T, cfg core.Config, seams func(*core.Replicating)) (uint64, core.GCStats, bool) {
	t.Helper()
	m, gc := newRun(cfg, core.LogAllMutations)
	seams(gc)
	rng := rand.New(rand.NewSource(7))
	roots := &growingRoots{}
	m.Roots.Register(roots)
	var arrays, buffers []int // root indices of the mutable large objects
	alloc := func(k heap.Kind, n int) int {
		p, err := m.Alloc(k, n)
		if err != nil {
			t.Fatal(err)
		}
		roots.slots = append(roots.slots, p)
		return len(roots.slots) - 1
	}
	// hammer is the stream's only schedule-dependent part — it runs once per
	// pause — so what it stores depends on the slot and the phase alone and
	// it walks a fixed list of slots: after one full round (the last call of
	// a phase completes it) the heap is the same however many pauses it took.
	bothSides, calls := false, 0
	const spots = 8              // per end of each large object
	spot := func(n, j int) int { // the j-th hammered index of an n-slot object
		if j < spots {
			return j * (n / 4) / spots
		}
		return n - 1 - (j-spots)*(n/4)/spots
	}
	hammer := func(phase int, rounds int) {
		for _, major := range []bool{false, true} {
			next, words, ok := gc.CopyInFlight(major)
			bothSides = bothSides || ok && next > 0 && next < words
		}
		for r := 0; r < rounds; r++ {
			j := calls % (2 * spots)
			calls++
			for _, i := range arrays {
				s := spot(m.Length(roots.slots[i]), j)
				if j%2 == 0 {
					m.Set(roots.slots[i], s, roots.slots[(s*31+phase)%len(roots.slots)])
				} else {
					m.Set(roots.slots[i], s, heap.FromInt(int64(s*1000+phase)))
				}
			}
			for _, i := range buffers {
				off := spot(m.Length(roots.slots[i])-16, j)
				data := []byte{byte(off), byte(phase), 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, byte(j)}
				if j%2 == 0 {
					m.SetByteRange(roots.slots[i], off, data)
				} else {
					m.SetByte(roots.slots[i], off, data[0]+data[1])
				}
			}
		}
	}

	for phase := 0; phase < 4; phase++ {
		if !gc.CheckpointNow().Quiescent {
			t.Fatalf("phase %d: allocation would overlap a collection", phase)
		}
		for i := 0; i < 60; i++ {
			k := []heap.Kind{heap.KindRecord, heap.KindRef, heap.KindArray, heap.KindClosure}[rng.Intn(4)]
			r := alloc(k, 1+rng.Intn(6))
			for s := 0; s < m.Length(roots.slots[r]); s++ {
				m.Init(roots.slots[r], s, roots.slots[rng.Intn(len(roots.slots))])
			}
		}
		// Four large objects a phase, all below N/2 and so born in the
		// nursery; in phase 0 one array above it, born old and filled.
		arrays = append(arrays, alloc(heap.KindArray, 300+rng.Intn(200)))
		buffers = append(buffers, alloc(heap.KindBytes, 8*(300+rng.Intn(200))))
		rec := alloc(heap.KindRecord, 200+rng.Intn(100))
		for s := 0; s < m.Length(roots.slots[rec]); s += 7 {
			m.Init(roots.slots[rec], s, roots.slots[rng.Intn(len(roots.slots))])
		}
		str := make([]byte, 8*(200+rng.Intn(100)))
		rng.Read(str)
		p, err := m.AllocString(str)
		if err != nil {
			t.Fatal(err)
		}
		roots.slots = append(roots.slots, p)
		if phase == 0 {
			// Born old, so every initialising store is logged: a log longer
			// than a pause replays, all of it there when the first one begins.
			big := alloc(heap.KindArray, 4200)
			arrays = append(arrays, big)
			for s := 0; s < 4200; s++ {
				m.Init(roots.slots[big], s, roots.slots[(s*17)%len(roots.slots)])
			}
		}

		for pauses := 0; ; pauses++ {
			if err := gc.CollectForAlloc(m, 0); err != nil {
				t.Fatal(err)
			}
			if pauses%61 == 0 { // the audit walks the whole graph
				if err := core.AuditHeap(m); err != nil {
					t.Fatalf("phase %d pause %d: %v", phase, pauses, err)
				}
			}
			if gc.CheckpointNow().Quiescent {
				hammer(phase, 2*spots) // one full round, whatever came before
				break
			}
			hammer(phase, 1)
			if pauses > 1<<20 {
				t.Fatalf("phase %d: the collection does not end", phase)
			}
		}
	}
	digest := m.GraphDigest(func(_ func(uint64), walk func(heap.Value)) {
		for _, p := range roots.slots {
			walk(p)
		}
	})
	return digest, *gc.Stats(), bothSides
}

// TestSplitCopyDifferential runs one operation stream with the split
// threshold forced to "never" and to "always, one word per increment", and
// with the threshold the configuration derives from L: the three must end
// with the same graph and the same copy volume in both generations, the
// chunked ones having stored on both sides of a copy cursor on the way.
func TestSplitCopyDifferential(t *testing.T) {
	// L = 4 KB: the stream's few hundred roots are passed over twice within
	// the 2 ms budget, so the completion attempt that meets a large object is
	// not one let through over budget, which would copy it whole; the
	// 4 200-slot array is still four budgets long.
	cfg := splitConfig()
	cfg.CopyLimitBytes = 4 << 10
	split := func(threshold int64, chunkWords int) func(*core.Replicating) {
		return func(gc *core.Replicating) { gc.SetCopySplit(threshold, chunkWords) }
	}
	whole, wholeStats, _ := immortalStream(t, cfg, split(math.MaxInt64, 0))
	if wholeStats.SplitCopies != 0 {
		t.Fatalf("threshold \"never\" split %d copies", wholeStats.SplitCopies)
	}
	if wholeStats.MajorCollections < 3 {
		t.Fatalf("%d majors: the stream is too small to say anything", wholeStats.MajorCollections)
	}
	for _, c := range []struct {
		name       string
		threshold  int64
		chunkWords int
	}{{"one-word-chunks", 1, 1}, {"derived-from-L", 0, 0}} {
		t.Run(c.name, func(t *testing.T) {
			digest, st, bothSides := immortalStream(t, cfg, split(c.threshold, c.chunkWords))
			if digest != whole {
				t.Errorf("graph %016x, copied whole it is %016x", digest, whole)
			}
			if st.BytesCopiedMinor != wholeStats.BytesCopiedMinor || st.BytesCopiedMajor != wholeStats.BytesCopiedMajor ||
				st.MajorCollections != wholeStats.MajorCollections {
				t.Errorf("copied %d + %d B over %d majors, copied whole it is %d + %d B over %d",
					st.BytesCopiedMinor, st.BytesCopiedMajor, st.MajorCollections,
					wholeStats.BytesCopiedMinor, wholeStats.BytesCopiedMajor, wholeStats.MajorCollections)
			}
			if st.SplitCopies == 0 || !bothSides {
				t.Errorf("%d copies split, stores on both sides of a cursor: %v", st.SplitCopies, bothSides)
			}
			if st.LargestCopyBytes > cfg.PauseCopyBound() {
				t.Errorf("largest uninterrupted copy %d B (%d completion attempts overran their pause): the stream no longer splits what it was built to split", st.LargestCopyBytes, st.Overruns)
			}
			t.Logf("%d copies split over %d pauses (%d whole), largest uninterrupted copy %d B (%d whole)",
				st.SplitCopies, st.PauseCount, wholeStats.PauseCount, st.LargestCopyBytes, wholeStats.LargestCopyBytes)
		})
	}
}

// TestSplitCopyProgramOutput runs the MiniML program that holds a large array
// across several majors with copies never split and split at every budget
// boundary: same output, same number of majors.
func TestSplitCopyProgramOutput(t *testing.T) {
	run := func(threshold int64) (string, core.GCStats) {
		m, gc := newRun(paperRT(), core.LogAllMutations)
		gc.SetCopySplit(threshold, 0)
		prog, err := lang.Compile(m, holdsLargeArray)
		if err != nil {
			t.Fatal(err)
		}
		machine := vm.New(m, prog)
		if err := machine.Run(); err != nil {
			t.Fatal(err)
		}
		if err := gc.FinishCycles(m); err != nil {
			t.Fatal(err)
		}
		return machine.Output.String(), *gc.Stats()
	}
	whole, wholeStats := run(math.MaxInt64)
	split, splitStats := run(1)
	if split != whole || splitStats.MajorCollections != wholeStats.MajorCollections {
		t.Errorf("split: %q after %d majors; whole: %q after %d", split, splitStats.MajorCollections, whole, wholeStats.MajorCollections)
	}
	if splitStats.SplitCopies == 0 {
		t.Error("no copy was split")
	}
}

// TestInFlightImmutableReplicaStaysHidden pins the one case in which a
// half-filled replica could become mutator-visible: the major collection
// redirects a to-space slot that references an immutable from-space object to
// the replica at once, because the mutator cannot tell the two apart — unless
// the replica is not filled yet. The slot must keep the original until the
// flip, like a reference to a mutable object.
func TestInFlightImmutableReplicaStaysHidden(t *testing.T) {
	m, gc := newRun(splitConfig(), core.LogAllMutations)
	roots := &growingRoots{}
	m.Roots.Register(roots)
	const words = 4200 // above N/2: born old, and far above 2L
	alloc := func(k heap.Kind, n int) int {
		p, err := m.Alloc(k, n)
		if err != nil {
			t.Fatal(err)
		}
		roots.slots = append(roots.slots, p)
		return len(roots.slots) - 1
	}
	// Root 0 is a large array, root 1 a small one that alone leads to the
	// large record: the major's root pass splits the array's copy and stops,
	// so the record is still untouched while that copy is in flight.
	big, link, rec := alloc(heap.KindArray, words), alloc(heap.KindArray, 1), alloc(heap.KindRecord, words)
	for i := 0; i < words; i++ {
		m.Init(roots.slots[rec], i, heap.FromInt(int64(i)))
	}
	m.Init(roots.slots[link], 0, roots.slots[rec])
	roots.slots = roots.slots[:rec]
	// A first major leaves all three in old-from and stale words in old-to.
	if err := gc.CollectEmergency(m); err != nil {
		t.Fatal(err)
	}
	// A second one starts (a dead object born old counts toward O) and leaves
	// the large array's copy in flight.
	if _, err := m.Alloc(heap.KindArray, words); err != nil {
		t.Fatal(err)
	}
	for pauses := 0; !gc.CheckpointNow().MajorActive; pauses++ {
		if err := gc.CollectForAlloc(m, 0); err != nil || pauses > 8 {
			t.Fatalf("no major after %d pauses (%v)", pauses, err)
		}
	}
	if next, _, ok := gc.CopyInFlight(true); !ok || m.H.IsForwarded(m.Get(roots.slots[link], 0)) {
		t.Fatalf("want the array's copy in flight (%v, %d words in) and the record untouched", ok, next)
	}
	_ = big
	// Now the mutator makes a holder — born in to-space, so mutator-visible
	// and swept by the major — the second way to the record. The store is
	// logged, and the log pass that meets it starts the record's copy.
	holder := alloc(heap.KindArray, words)
	m.Init(roots.slots[holder], 0, m.Get(roots.slots[link], 0))
	recordInFlight := false
	for pauses := 0; !gc.CheckpointNow().Quiescent; pauses++ {
		if err := gc.CollectForAlloc(m, 0); err != nil {
			t.Fatal(err)
		}
		seen := m.Get(roots.slots[holder], 0)
		if _, n, ok := gc.CopyInFlight(true); ok && n == words && m.H.IsForwarded(m.Get(roots.slots[link], 0)) {
			recordInFlight = true
		}
		for _, i := range []int{0, 1, words / 2, words - 2, words - 1} {
			if got := m.Get(seen, i); got != heap.FromInt(int64(i)) {
				t.Fatalf("pause %d: the holder's record reads %v in slot %d", pauses, got, i)
			}
		}
		if err := core.AuditHeap(m); err != nil {
			t.Fatalf("pause %d: %v", pauses, err)
		}
		if pauses > 1<<16 {
			t.Fatal("the collection does not end")
		}
	}
	if !recordInFlight {
		t.Fatal("the record's copy was never in flight: the test does not reach the case")
	}
}

// TestDeferredMutableCopyIsWhole pins the other place a split would be wrong:
// under DeferMutableCopies the completing increment copies the deferred
// mutable objects just before the flip, with nothing left to resume a copy.
func TestDeferredMutableCopyIsWhole(t *testing.T) {
	cfg := splitConfig()
	cfg.DeferMutableCopies, cfg.MajorThresholdBytes = true, 0 // the minor generation alone
	m, gc := newRun(cfg, core.LogAllMutations)
	roots := &growingRoots{slots: make([]heap.Value, 1)}
	m.Roots.Register(roots)
	arr, err := m.Alloc(heap.KindArray, 4000) // nursery-born, four times 2L
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i += 100 {
		m.Init(arr, i, heap.FromInt(int64(i)))
	}
	roots.slots[0] = arr
	ref, err := m.Alloc(heap.KindRecord, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Init(ref, 0, roots.slots[0])
	roots.slots[0] = ref // the array is reachable through the record only
	for pauses := 0; pauses == 0 || !gc.CheckpointNow().Quiescent; pauses++ {
		if err := gc.CollectForAlloc(m, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Get(m.Get(roots.slots[0], 0), 3900); got != heap.FromInt(3900) {
		t.Fatalf("the array reads %v in slot 3900 after the flip", got)
	}
	if st := gc.Stats(); st.SplitCopies != 0 || st.LargestCopyBytes != 4001*heap.BytesPerWord {
		t.Fatalf("%d copies split, largest uninterrupted copy %d B; want the deferred array whole", st.SplitCopies, st.LargestCopyBytes)
	}
}

// TestShrinkOldBetweenChunks is the fault-plan cell of the in-flight state:
// the old generation is clamped to its current use while a large copy is half
// done. The copy still finishes — its replica was reserved whole — and the
// typed error comes from the next reservation, with that object untouched;
// once the headroom is back the cycle resumes and completes.
func TestShrinkOldBetweenChunks(t *testing.T) {
	m, gc := newRun(splitConfig(), core.LogAllMutations)
	roots := &growingRoots{}
	m.Roots.Register(roots)
	const words = 4200
	for r := 0; r < 2; r++ {
		p, err := m.Alloc(heap.KindArray, words)
		if err != nil {
			t.Fatal(err)
		}
		roots.slots = append(roots.slots, p)
		for i := 0; i < words; i += 100 {
			m.Init(roots.slots[r], i, heap.FromInt(int64(r*words+i)))
		}
	}
	if err := gc.CollectEmergency(m); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(heap.KindArray, words); err != nil { // dead, but it counts toward O
		t.Fatal(err)
	}
	for pauses := 0; !gc.CheckpointNow().MajorActive; pauses++ {
		if err := gc.CollectForAlloc(m, 0); err != nil || pauses > 8 {
			t.Fatalf("no major after %d pauses (%v)", pauses, err)
		}
	}
	next, _, ok := gc.CopyInFlight(true)
	if !ok || next == 0 || next >= words || m.H.IsForwarded(roots.slots[1]) {
		t.Fatalf("want the first array's copy half done (%v, %d words in) and the second untouched", ok, next)
	}

	inj := faultinject.New(m, faultinject.Plan{Events: []faultinject.Event{
		{AtOp: 1, Action: faultinject.ShrinkOld}, {AtOp: 2, Action: faultinject.RestoreHeadroom},
	}})
	if err := inj.Tick(); err != nil {
		t.Fatal(err)
	}
	var oom *core.OOMError
	for pauses := 0; oom == nil; pauses++ {
		err := gc.CollectForAlloc(m, 0)
		if err != nil && !errors.As(err, &oom) {
			t.Fatal(err)
		}
		if aerr := core.AuditHeap(m); aerr != nil {
			t.Fatalf("pause %d: %v", pauses, aerr)
		}
		if pauses > 1<<12 {
			t.Fatal("the clamped to-space never refused a reservation")
		}
	}
	if _, _, ok := gc.CopyInFlight(true); ok || !m.H.IsForwarded(roots.slots[0]) || m.H.IsForwarded(roots.slots[1]) {
		t.Fatalf("the error struck mid-object: copy in flight %v, first array forwarded %v, second %v",
			ok, m.H.IsForwarded(roots.slots[0]), m.H.IsForwarded(roots.slots[1]))
	}
	if oom.Resource != core.OOMToSpace || oom.Request != (words+1)*heap.BytesPerWord {
		t.Fatalf("got %v; want the second array's reservation refused by the to-space", oom)
	}

	if err := inj.Tick(); err != nil {
		t.Fatal(err)
	}
	for pauses := 0; !gc.CheckpointNow().Quiescent; pauses++ {
		if err := gc.CollectForAlloc(m, 0); err != nil || pauses > 1<<12 {
			t.Fatalf("the cycle did not resume (pause %d: %v)", pauses, err)
		}
	}
	for r := 0; r < 2; r++ {
		if got := m.Get(roots.slots[r], 4100); got != heap.FromInt(int64(r*words+4100)) {
			t.Fatalf("array %d reads %v in slot 4100 after the flip", r, got)
		}
	}
	if err := core.AuditHeap(m); err != nil {
		t.Fatal(err)
	}
}
