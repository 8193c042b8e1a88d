package main

import (
	"fmt"
	"time"

	"repligc/internal/checkpoint"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/trace"
)

// layerMetrics turns the spans of the oracle iteration (under stop-and-copy)
// and of one traced iteration (under rt), each a [from, to) range of spans,
// into the per-layer host times. Counts were harvested from the untraced
// iterations already; the simulated side is identical.
func layerMetrics(out *outcome, spans []span, oracleAt, tracedAt [2]int, oracle *result, traced measured) {
	v := out.metrics
	lt := timesOf(spans, tracedAt[0], tracedAt[1])
	sec := func(d time.Duration) float64 { return d.Seconds() }

	v["lang.compile_s"] = sec(lt.self["lang.compile"])
	v["vm.run_s"] = sec(lt.total["vm.run"])
	v["vm.self_s"] = sec(lt.self["vm.run"])
	v["vm.msteps_per_s"] = ratio(v["vm.steps"]/1e6, v["vm.self_s"])

	busy := sec(lt.total["collector.pause"])
	v["collector.busy_s"] = busy
	v["collector.share"] = ratio(busy, traced.runS())
	v["collector.copy_mb_per_host_s"] = ratio(v["collector.copied_mb"], busy)
	if ds := durationsOf(spans[tracedAt[0]:tracedAt[1]], "collector.pause"); len(ds) > 0 {
		us := func(p int) float64 { return float64(ds[(len(ds)-1)*p/100]) / 1e3 }
		v["collector.span_p50_us"] = us(50)
		v["collector.span_p95_us"] = us(95)
	}

	v["group.run_s"] = sec(lt.total["group.round-block"])
	v["heap.new_s"] = sec(lt.total["heap.new"])
	v["simtime.digest_s"] = sec(lt.total["digest"])

	v["workload.generate_s"] = sec(lt.total["workload.generate"])
	v["workload.serve_s"] = sec(lt.total["workload.serve"])
	v["workload.self_s"] = sec(lt.self["workload.serve"])
	v["workload.requests_per_host_s"] = ratio(v["workload.requests"], v["workload.serve_s"])

	// The comparison column: the same inputs under stop-and-copy.
	ot := timesOf(spans, oracleAt[0], oracleAt[1])
	v["stopcopy.busy_s"] = sec(ot.total["collector.pause"])
	v["stopcopy.sim_elapsed_ms"] = oracle.values["sim_elapsed_ms"]
	v["stopcopy.sim_pause_max_ms"] = oracle.values["sim_pause_max_ms"]
	v["stopcopy.copied_mb"] = oracle.values["collector.copied_mb"]
	v["workload.encode_s"] = sec(ot.total["workload.encode"])
	v["workload.decode_s"] = sec(ot.total["workload.decode"])
	v["workload.trace_kb"] = oracle.values["workload.trace_kb"]

	v["harness.tracing_overhead_pct"] = 100 * ratio(traced.runS()-v["host_run_s"], v["host_run_s"])
	v["harness.ref_probe_s"] = refProbe()
}

// refSink keeps refProbe's loop from being optimised away.
var refSink uint64

// refProbe times a fixed pure-Go loop. It is for reading numbers across
// machines, not for gating: dividing by it did not steady anything.
func refProbe() float64 {
	t := time.Now()
	x := uint64(1)
	for i := 0; i < 200_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink = x
	return time.Since(t).Seconds()
}

// layerProbes measures what the end-to-end iterations cannot show: the
// mutator's two primitives in isolation, the phases inside lang.Compile,
// and (on the probed program, sort) a run with the flight recorder and one
// with the checkpoint writer attached.
func layerProbes(out *outcome, rec *recorder, w workload, first *result) error {
	if err := mutatorProbes(out, rec); err != nil {
		return err
	}
	switch w := w.(type) {
	case *compWorkload:
		if err := langProbe(out, rec, w.sources, compReps); err != nil {
			return err
		}
	case *vmWorkload:
		if err := langProbe(out, rec, []string{w.src}, 1); err != nil {
			return err
		}
		if w.probed {
			if err := traceProbe(out, w, first); err != nil {
				return err
			}
			return checkpointProbe(out, w, first)
		}
	}
	return nil
}

// selfOf runs f inside a span and returns the span's self time: what f took
// less the collector pauses nested in it.
func selfOf(rec *recorder, name string, f func() error) (time.Duration, error) {
	mark := rec.mark()
	s := rec.begin(name)
	err := f()
	rec.end(s)
	return timesOf(rec.spans, mark, len(rec.spans)).self[name], err
}

// mutatorProbes times 200 000 four-word allocations and a million stores
// into an old-space array, collector time subtracted.
func mutatorProbes(out *outcome, rec *recorder) error {
	const allocs, sets, oldWords = 200_000, 1_000_000, 1 << 14
	r, err := newRig(rec, paperParams, collectorRT, 1, nil)
	if err != nil {
		return err
	}
	m := r.mut
	d, err := selfOf(rec, "probe.alloc", func() error {
		for i := 0; i < allocs; i++ {
			if _, err := m.Alloc(heap.KindArray, 4); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("alloc probe: %w", err)
	}
	out.metrics["mutator.alloc_ns"] = float64(d) / allocs

	// An array over half the nursery is born in the old generation.
	arr, err := m.Alloc(heap.KindArray, oldWords)
	if err != nil {
		return fmt.Errorf("set probe: %w", err)
	}
	d, _ = selfOf(rec, "probe.set", func() error {
		for i := 0; i < sets; i++ {
			m.Set(arr, i&(oldWords-1), heap.FromInt(int64(i)))
		}
		return nil
	})
	out.metrics["mutator.set_ns"] = float64(d) / sets
	return nil
}

// langProbe splits lang.compile_s into lexing, parsing and code generation.
// The three cannot be timed inside Compile from outside, so one pass over
// the sources times LexAll, Parse and Compile separately on a fresh runtime
// and the measured compile time is apportioned by those shares.
func langProbe(out *outcome, rec *recorder, sources []string, reps int) error {
	r, err := newRig(rec, paperParams, collectorRT, 1, nil)
	if err != nil {
		return err
	}
	m := r.mut
	tokens := 0
	lex, err := selfOf(rec, "probe.lex", func() error {
		for _, src := range sources {
			toks, err := lang.LexAll(src)
			if err != nil {
				return err
			}
			tokens += len(toks)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("lex probe: %w", err)
	}
	parse, err := selfOf(rec, "probe.parse", func() error {
		for _, src := range sources {
			mark := m.HandleMark()
			_, _, err := lang.Parse(m, lang.NewSymTab(m), src)
			m.PopHandles(mark)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("parse probe: %w", err)
	}
	compile, err := selfOf(rec, "probe.compile", func() error {
		for _, src := range sources {
			if _, err := lang.Compile(m, src); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("compile probe: %w", err)
	}
	v := out.metrics
	total := v["lang.compile_s"]
	v["lang.lex_s"] = total * ratio(float64(lex), float64(compile))
	v["lang.parse_s"] = total * ratio(float64(parse-lex), float64(compile))
	v["lang.codegen_s"] = total * ratio(float64(compile-parse), float64(compile))
	v["lang.tokens"] = float64(tokens * reps)
	v["lang.tokens_per_s"] = ratio(v["lang.tokens"], v["lang.lex_s"])
	return nil
}

// traceProbe re-runs w with the repository's flight recorder attached. The
// recorder charges nothing to the simulated clock, so the run must come out
// identical.
func traceProbe(out *outcome, w *vmWorkload, first *result) error {
	probe := *w
	probe.tr = trace.NewRecorder(1 << 20)
	m := measure(nil, &probe, collectorRT)
	if m.err != nil {
		return fmt.Errorf("trace probe: %w", m.err)
	}
	if m.res.fingerprint != first.fingerprint {
		return fmt.Errorf("trace probe: recording changed the simulated run")
	}
	v := out.metrics
	v["trace.events"] = float64(probe.tr.Len())
	v["trace.dropped"] = float64(probe.tr.Dropped())
	v["trace.overhead_s"] = m.runS() - v["host_run_s"]
	events := probe.tr.Events()
	t := time.Now()
	if _, err := trace.Analyze(events); err != nil {
		return fmt.Errorf("trace probe: analyze: %w", err)
	}
	v["trace.analyze_s"] = time.Since(t).Seconds()
	t = time.Now()
	if _, err := trace.ChromeTrace(events, nil); err != nil {
		return fmt.Errorf("trace probe: export: %w", err)
	}
	v["trace.export_s"] = time.Since(t).Seconds()
	return nil
}

// checkpointProbe re-runs w with the incremental checkpoint writer attached
// (64 KB of snapshot copying per pause, one epoch per 4 MB allocated), then
// recovers the last epoch and compares fingerprints. Checkpoint copying is
// charged to the simulated clock, so this run is slower there too.
func checkpointProbe(out *outcome, w *vmWorkload, first *result) error {
	dir, cleanup, err := checkpoint.TempDir("hostbench-ckpt-")
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	defer cleanup()
	probe := *w
	probe.ckpt = checkpoint.NewWriter(checkpoint.Config{Dir: dir, BudgetBytes: 64 << 10, EveryBytes: 4 << 20})
	m := measure(nil, &probe, collectorRT)
	if m.err != nil {
		return fmt.Errorf("checkpoint probe: %w", m.err)
	}
	if m.res.output != first.output {
		return fmt.Errorf("checkpoint probe: checkpointing changed the program's output")
	}
	st := probe.ckpt.Stats()
	if st.LastErr != nil {
		return fmt.Errorf("checkpoint probe: writer: %w", st.LastErr)
	}
	v := out.metrics
	v["checkpoint.overhead_s"] = m.runS() - v["host_run_s"]
	base := first.values["sim_elapsed_ms"]
	v["checkpoint.sim_overhead_pct"] = 100 * ratio(m.res.values["sim_elapsed_ms"]-base, base)
	v["checkpoint.epochs_committed"] = float64(st.Committed)
	v["checkpoint.epochs_aborted"] = float64(st.Aborted)
	v["checkpoint.commit_ratio"] = ratio(float64(st.Committed), float64(st.Committed+st.Aborted))
	v["checkpoint.bytes_written"] = float64(st.SnapshotBytes + st.WALBytes)

	t := time.Now()
	restored, err := checkpoint.Recover(dir)
	v["checkpoint.recover_s"] = time.Since(t).Seconds()
	if err != nil {
		return fmt.Errorf("checkpoint probe: recover: %w", err)
	}
	if n := len(st.Epochs); n == 0 || st.Epochs[n-1].Fingerprint != restored.Fingerprint {
		return fmt.Errorf("checkpoint probe: recovered epoch %d does not match the writer's last commit", restored.Epoch)
	}
	return nil
}
