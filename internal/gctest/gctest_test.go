package gctest

import (
	"fmt"
	"strings"
	"testing"

	"repligc/internal/core"
	"repligc/internal/heap"
	"repligc/internal/simtime"
)

// tortureConfig is the incremental replicating collector the core package's
// shadow-model tests run: both generations incremental, a nursery small
// enough that a few thousand operations collect it.
var tortureConfig = core.Config{
	NurseryBytes:        32 << 10,
	MajorThresholdBytes: 128 << 10,
	CopyLimitBytes:      8 << 10,
	IncrementalMinor:    true,
	IncrementalMajor:    true,
}

// paperConfig is the real-time collector at the paper's parameters: a
// 200 KB nursery, whose collections come a few times a thousand operations.
var paperConfig = core.Config{
	NurseryBytes:        200 << 10,
	MajorThresholdBytes: 1 << 20,
	CopyLimitBytes:      100 << 10,
	IncrementalMinor:    true,
	IncrementalMajor:    true,
}

func newHeap(cfg core.Config) *heap.Heap {
	return heap.New(heap.Config{
		NurseryBytes:    cfg.NurseryBytes,
		NurseryCapBytes: 32 * cfg.NurseryBytes,
		OldSemiBytes:    16 << 20,
	})
}

// newDriver attaches a driver seeded with seed to a fresh mutator under cfg.
func newDriver(cfg core.Config, seed int64) (*Driver, *core.Replicating) {
	h := newHeap(cfg)
	m := core.NewMutator(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations)
	gc := core.NewReplicating(h, cfg)
	m.AttachGC(gc)
	return NewDriver(m, seed), gc
}

// pin is what a run leaves that the shadow model's storage must not move:
// how many operations it made, the reachable graph, the simulated clock and
// the collector's pauses.
type pin struct {
	ops    int
	fp     uint64
	now    simtime.Duration
	pauses int
}

// TestDriverPins pins single-driver runs of 20 000 operations, with and
// without large objects, to the operation stream they produced. The PRNG
// draws, not the driver's bookkeeping, decide every number here.
func TestDriverPins(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		large bool
		want  pin
	}{
		{1, false, pin{20000, 0x66e9213c7da11e41, 130057920, 30}},
		{2, false, pin{20000, 0x69cffec5207c9cf9, 130260840, 30}},
		{3, false, pin{20000, 0x6be9a1a8fc871574, 129161040, 30}},
		{1, true, pin{20000, 0x9580be3c577bc14e, 708754840, 135}},
		{2, true, pin{20000, 0x38396e3f39fec201, 659756960, 132}},
		{3, true, pin{20000, 0x777b89414b39a7e6, 678704080, 133}},
	} {
		name := fmt.Sprintf("seed%d", c.seed)
		if c.large {
			name += "-large"
		}
		t.Run(name, func(t *testing.T) {
			d, gc := newDriver(tortureConfig, c.seed)
			if c.large {
				d.LargeEvery, d.LargeWords = 320, 1536
			}
			if err := d.Step(20000); err != nil {
				t.Fatal(err)
			}
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
			got := pin{d.Ops, d.Fingerprint(), d.M.Clock.Now(), gc.Stats().PauseCount}
			if got != c.want {
				t.Errorf("got %#v, want %#v", got, c.want)
			}
		})
	}
}

// TestMultiDriverPin pins a four-member group, 400 rounds of 80-operation
// quanta: the shape of the repository benchmark's group4.
func TestMultiDriverPin(t *testing.T) {
	h := newHeap(tortureConfig)
	g := core.NewGroup(h, simtime.NewClock(), simtime.Default1993(), core.LogAllMutations, 4)
	gc := core.NewReplicating(h, tortureConfig)
	g.AttachGC(gc)
	md, err := NewMultiDriver(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 400; round++ {
		if err := md.Step(80); err != nil {
			t.Fatal(err)
		}
	}
	if err := md.Verify(); err != nil {
		t.Fatal(err)
	}
	ops := 0
	for _, d := range md.Drivers {
		ops += d.Ops
	}
	got := pin{ops, md.Fingerprint(), g.Clock.Now(), gc.Stats().PauseCount}
	if want := (pin{128000, 0xe4be4d1e2b7dc410, 1051557360, 48}); got != want {
		t.Errorf("got %#v, want %#v", got, want)
	}
}

// TestDriverStepAllocs holds the driver to storage that grows by chunks:
// once warm, its operations make no Go allocation of their own, so the Go
// collector does not run on the torture workload's account.
func TestDriverStepAllocs(t *testing.T) {
	d, _ := newDriver(paperConfig, 1)
	if err := d.Step(50000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Step(1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("%v Go allocations per 1000 operations, want at most 1", allocs)
	}
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSmallLargeWords runs large objects at the sizes LargeWords raises to
// 4: every store hammerLarge makes needs a quarter of the object to pick from.
func TestSmallLargeWords(t *testing.T) {
	for words := 1; words <= 3; words++ {
		t.Run(fmt.Sprint(words), func(t *testing.T) {
			d, _ := newDriver(tortureConfig, 1)
			d.LargeEvery, d.LargeWords = 16, words
			if err := d.Step(2000); err != nil {
				t.Fatal(err)
			}
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// findSlot returns a rooted pointer-bearing object, its shadow words and a
// slot of it whose shadow ok accepts.
func findSlot(t *testing.T, d *Driver, ok func(shadow) bool) (heap.Value, []shadow, int) {
	t.Helper()
	for i, s := range d.shadow {
		words, _ := d.payload(d.node(s))
		for slot, w := range words {
			if ok(w) {
				return d.roots.slots[i], words, slot
			}
		}
	}
	t.Fatal("no rooted object has such a slot")
	return heap.Nil, nil, 0
}

// TestVerifyCatches corrupts one rooted object behind the write barrier and
// demands that Verify report it: the one-word shadow encoding must keep nil,
// integers and nodes apart.
func TestVerifyCatches(t *testing.T) {
	isInt := func(s shadow) bool { return s > 0 }
	for _, c := range []struct {
		name    string
		corrupt func(t *testing.T, d *Driver) string // returns the report's text
	}{
		{"int changed", func(t *testing.T, d *Driver) string {
			p, _, slot := findSlot(t, d, isInt)
			v := d.M.Get(p, slot).Int()
			//gclint:allow barrier -- test: a corruption the log never sees
			d.M.H.Store(p, slot, heap.FromInt(v+1))
			return fmt.Sprintf("want int %d, got %d", v, v+1)
		}},
		{"int 0 against nil", func(t *testing.T, d *Driver) string {
			p, words, slot := findSlot(t, d, isInt)
			d.M.Set(p, slot, heap.FromInt(0))
			words[slot] = intShadow(0)
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
			//gclint:allow barrier -- test: a corruption the log never sees
			d.M.H.Store(p, slot, heap.Nil)
			return "want int 0, got nil"
		}},
		{"nil against int 0", func(t *testing.T, d *Driver) string {
			p, _, slot := findSlot(t, d, func(s shadow) bool { return s == 0 })
			//gclint:allow barrier -- test: a corruption the log never sees
			d.M.H.Store(p, slot, heap.FromInt(0))
			return "want nil, got 0"
		}},
		{"pointer cleared", func(t *testing.T, d *Driver) string {
			p, _, slot := findSlot(t, d, func(s shadow) bool { return s < 0 })
			//gclint:allow barrier -- test: a corruption the log never sees
			d.M.H.Store(p, slot, heap.Nil)
			return "node, got nil"
		}},
		{"byte flipped", func(t *testing.T, d *Driver) string {
			for i, s := range d.shadow {
				if _, bytes := d.payload(d.node(s)); len(bytes) > 0 {
					p := d.roots.slots[i]
					//gclint:allow barrier -- test: a corruption the log never sees
					d.M.H.StoreByte(p, 0, ^bytes[0])
					return fmt.Sprintf("byte 0 mismatch: heap %d, shadow %d", ^bytes[0], bytes[0])
				}
			}
			t.Fatal("no rooted object has bytes")
			return ""
		}},
		{"aliased", func(t *testing.T, d *Driver) string {
			// Root 0 is verified first, so its object is seen under its own
			// node before the slot that now holds it is reached under another.
			p, _, slot := findSlot(t, d, func(s shadow) bool { return s < 0 && s != d.shadow[0] })
			//gclint:allow barrier -- test: a corruption the log never sees
			d.M.H.Store(p, slot, d.roots.slots[0])
			return "aliasing mismatch"
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, _ := newDriver(tortureConfig, 1)
			d.LargeEvery, d.LargeWords = 320, 64
			if err := d.Step(2000); err != nil {
				t.Fatal(err)
			}
			if err := d.Verify(); err != nil {
				t.Fatal(err)
			}
			want := c.corrupt(t, d)
			if err := d.Verify(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("Verify = %v, want a report containing %q", err, want)
			}
		})
	}
}
