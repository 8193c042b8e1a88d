package bench

import (
	"errors"
	"fmt"
	"testing"

	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/rig"
	"repligc/internal/trace"
)

// TestCompositionMatrix is the construction half of ROADMAP 2(a): every
// collector the table names × group size × recorder × checkpointer, each cell
// a short shadow-model run on the engine golden's tight heap, built by the
// one constructor. A cell either is refused with the typed error — exactly
// the cells DESIGN.md, "One runtime", lists — or honours everything it was
// given: the run finishes, every member's shadow graph and the heap audit
// hold, the recorder holds a valid trace that did not move the run by a
// nanosecond, the writer committed, and the reachable graph is the same one
// under all ten collectors. Properties only; the absolute numbers are
// engine_golden.txt's business.
func TestCompositionMatrix(t *testing.T) {
	tight := engineShapes[0]
	// unsupported is DESIGN.md's list restricted to these axes.
	unsupported := func(c rig.Collector, members int, ckpt bool) bool {
		return ckpt && (c.StopCopy || members > 1)
	}
	cells := 0
	for _, members := range []int{1, 2, 4} {
		var graph uint64 // the first cell's fingerprint; every other must match
		for _, coll := range rig.Table {
			for _, ckpt := range []bool{false, true} {
				var lines [2]string
				for traced := 0; traced < 2; traced++ {
					cells++
					label := fmt.Sprintf("%s members=%d traced=%d checkpointed=%v", coll.Name, members, traced, ckpt)
					rc := engineGoldenConfig(coll, tight.params)
					rc.Members = members
					if traced == 1 {
						rc.Trace = trace.NewRecorder(1 << 14)
					}
					var w *checkpoint.Writer
					if ckpt {
						w = checkpoint.NewWriter(checkpoint.Config{Dir: t.TempDir(), BudgetBytes: 8 << 10})
						rc.Checkpoint = w
					}
					rt, md, line, err := engineGoldenGroupCell(rc, tight.seed, 48)
					var refused *rig.UnsupportedError
					switch {
					case errors.As(err, &refused):
						if !unsupported(coll, members, ckpt) || refused.Field != "Checkpoint" || refused.Collector != coll.Name {
							t.Errorf("%s: refused, but not as listed: %v", label, err)
						}
						continue
					case err != nil:
						t.Errorf("%s: %v", label, err)
						continue
					case unsupported(coll, members, ckpt):
						t.Errorf("%s: built a runtime for a cell listed as unsupported", label)
					}
					lines[traced] = line
					if fp := md.Fingerprint(); graph == 0 {
						graph = fp
					} else if fp != graph {
						t.Errorf("%s: reachable graph %016x, the other collectors computed %016x", label, fp, graph)
					}
					if err := md.Verify(); err != nil {
						t.Errorf("%s: shadow check: %v", label, err)
					}
					for i, m := range rt.Group.Members {
						if err := core.AuditHeap(m); err != nil {
							t.Errorf("%s: member %d: %v", label, i, err)
						}
					}
					if rt.GC.Stats().MinorCollections == 0 {
						t.Errorf("%s: the run crossed no collection", label)
					}
					if rc.Trace != nil {
						if rc.Trace.Len() == 0 {
							t.Errorf("%s: the recorder was ignored", label)
						}
						if err := trace.Validate(rc.Trace.Events()); err != nil {
							t.Errorf("%s: %v", label, err)
						}
					}
					if w != nil && w.Stats().Committed == 0 {
						t.Errorf("%s: the checkpointer was ignored: no epoch committed", label)
					}
				}
				if lines[0] != lines[1] {
					t.Errorf("%s members=%d checkpointed=%v: the recorder moved the run:\n off %s\n on  %s",
						coll.Name, members, ckpt, lines[0], lines[1])
				}
			}
		}
	}
	if cells != 120 {
		t.Fatalf("ran %d cells, want 120", cells)
	}
	compositionLargeObjects(t)
}

// compositionLargeObjects is the matrix's large-object plane: every collector
// the table names × group size, each member's driver allocating pointer
// arrays and byte buffers of 12-24 KB — above the tight shape's split
// threshold (L/4 = 1 KB) and on both sides of N/2, so some start in the
// nursery and some are born old — and storing into them near both ends while
// they are being copied. The heap audit (AuditHeap, which ends in
// AuditScanned) runs after every round and the shadow check after every
// sixth, mid-collection, and the reachable graph at the end must be the one
// sc computed.
func compositionLargeObjects(t *testing.T) {
	tight := engineShapes[0]
	splits := int64(0)
	for _, members := range []int{1, 2, 4} {
		var graph uint64
		for _, coll := range rig.Table {
			label := fmt.Sprintf("%s members=%d large objects", coll.Name, members)
			rc := engineGoldenConfig(coll, tight.params)
			rc.Members = members
			rt, err := rig.New(rc)
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			md, err := gctest.NewMultiDriver(rt.Group, tight.seed)
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			for _, d := range md.Drivers {
				d.LargeEvery, d.LargeWords = 320, 1536
			}
			for round := 0; round < 48 && err == nil; round++ {
				if err = md.Step(60); err != nil {
					break
				}
				for i, m := range rt.Group.Members {
					if err = core.AuditHeap(m); err != nil {
						err = fmt.Errorf("round %d: member %d: %w", round, i, err)
						break
					}
				}
				if err == nil && round%6 == 5 {
					err = md.Verify()
				}
			}
			if err == nil {
				err = rt.Finish()
			}
			if err == nil {
				err = md.Verify()
			}
			if err != nil {
				t.Errorf("%s: %v", label, err)
				continue
			}
			if fp := md.Fingerprint(); graph == 0 {
				graph = fp
			} else if fp != graph {
				t.Errorf("%s: reachable graph %016x, the other collectors computed %016x", label, fp, graph)
			}
			st := rt.GC.Stats()
			if st.MajorCollections == 0 {
				t.Errorf("%s: the run crossed no major collection", label)
			}
			if !coll.StopCopy && coll.Engine.IncrementalMajor && st.SplitCopies == 0 {
				t.Errorf("%s: no copy was split: the cell does not reach the in-flight state", label)
			}
			splits += st.SplitCopies
		}
	}
	t.Logf("large-object plane: 30 cells, %d copies split", splits)
}
