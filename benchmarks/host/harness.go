package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repligc/internal/simtime"
)

// workload is one set of inputs, made from the seed before anything is
// timed. The program under test receives only those inputs.
type workload interface {
	// describe says what the inputs are, for the report.
	describe() string
	// iterate constructs a runtime under collector, runs the inputs through
	// it once, holds the output against the workload's native oracle where
	// it has one, and digests the outcome.
	iterate(rec *recorder, collector string) (*result, error)
}

// result is what one iteration measured.
type result struct {
	setup time.Duration // runtime construction
	run   time.Duration // everything after it: run, finish, digest

	output      string // what the program computed; equal across collectors
	fingerprint uint64 // elapsed, pause list and output of every leg

	// requests and unserved count the operations inside the iteration
	// (serving requests); the iteration itself is one more.
	requests, unserved int

	// values holds every number the iteration can read off the runtime:
	// the sim_ metrics and the per-layer counts, by metric name.
	values map[string]float64
}

// pauseDigest is the gated summary of one pause list.
type pauseDigest struct {
	p50, p95, max simtime.Duration
	mmu1s         float64
}

// digest summarises pauses over a run of length total. It is the simtime
// layer's share of an iteration, so it runs inside the timed part.
func digest(rec *recorder, pauses []simtime.Pause, total simtime.Duration) pauseDigest {
	s := rec.begin("digest")
	defer rec.end(s)
	ds := make([]simtime.Duration, len(pauses))
	for i, p := range pauses {
		ds[i] = p.Length
	}
	q := simtime.Percentiles(ds, 50, 95, 100)
	return pauseDigest{
		p50: q[0], p95: q[1], max: q[2],
		mmu1s: simtime.MMUFromPauses(pauses, total, simtime.Second),
	}
}

// store writes the digest and elapsed time as the gated sim_ metrics.
func (d pauseDigest) store(v map[string]float64, elapsed simtime.Duration) {
	v["sim_elapsed_ms"] = elapsed.Milliseconds()
	v["sim_pause_p50_ms"] = d.p50.Milliseconds()
	v["sim_pause_p95_ms"] = d.p95.Milliseconds()
	v["sim_pause_max_ms"] = d.max.Milliseconds()
	v["sim_mmu_1s"] = d.mmu1s
}

// simHash folds simulated outcomes into a running FNV-1a fingerprint.
type simHash struct{ hash.Hash64 }

func newSimHash() simHash { return simHash{fnv.New64a()} }

// leg adds one leg: its elapsed time, its pause list and what it computed.
func (s simHash) leg(elapsed simtime.Duration, pauses []simtime.Pause, output string) {
	var buf [8]byte // one buffer for the leg: per-word ones would show in host_mallocs_k
	word := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		s.Write(buf[:])
	}
	word(int64(elapsed))
	word(int64(len(pauses)))
	for _, p := range pauses {
		word(int64(p.At))
		word(int64(p.Length))
		word(int64(p.Kind))
	}
	s.Write([]byte(output))
}

// measured is one iteration: what it computed and what it cost the host,
// the latter by metric name.
type measured struct {
	res  *result
	host map[string]float64
	err  error
}

// runS is the iteration's host_run_s sample.
func (m measured) runS() float64 { return m.host["host_run_s"] }

// settle collects the Go heap and returns freed memory to the system. It
// runs between iterations (and between serving legs), outside every timer,
// so that one iteration's garbage is not another's resident memory.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// measure runs one iteration of w under collector with the Go heap settled
// first.
func measure(rec *recorder, w workload, collector string) measured {
	settle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()

	it := rec.begin("iteration")
	res, err := w.iterate(rec, collector)
	rec.end(it)

	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return measured{err: err}
	}
	return measured{res: res, host: map[string]float64{
		"setup_s":                res.setup.Seconds(),
		"host_run_s":             res.run.Seconds(),
		"host_mallocs_k":         float64(after.Mallocs-before.Mallocs) / 1000,
		"harness.host_cpu_s":     cpu1 - cpu0,
		"harness.total_alloc_mb": float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		"harness.go_gc_cycles":   float64(after.NumGC - before.NumGC),
		"harness.go_gc_pause_ms": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set; Linux reports it in
// kilobytes.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// minIterations is the floor under the timed iterations however short the
// measuring time: medians and quartiles of fewer samples say little.
// tracedIterations is how many more a traced run adds with spans on.
const (
	minIterations    = 5
	tracedIterations = 3
)

// outcome is one whole run of a workload: the oracle iteration, the timed
// iterations and, when traced, a few more with the span recorder on.
type outcome struct {
	metrics     map[string]float64   // every metric by name; host timings as medians
	samples     map[string][]float64 // the timed iterations' host numbers, in order
	iterations  int
	fingerprint uint64
	attempted   int
	failed      int
	problems    []string
	spans       []span
}

// runWorkload is the protocol every workload follows. Iteration 0 runs the
// inputs under the stop-and-copy baseline, untimed: it is the
// cross-collector oracle. The timed iterations run under the real-time
// collector until seconds have been measured (never fewer than
// minIterations); their simulated outcomes must be identical. A traced run
// adds tracedIterations with spans on, and the layer probes.
func runWorkload(w workload, seconds float64, traced bool) *outcome {
	out := &outcome{metrics: map[string]float64{}, samples: map[string][]float64{}}
	defer func() { out.metrics["failed_share"] = ratio(float64(out.failed), float64(out.attempted)) }()
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	fail := func(format string, args ...any) {
		out.failed++
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
	}
	count := func(m measured) {
		out.attempted++
		if m.res != nil {
			out.attempted += m.res.requests
			out.failed += m.res.unserved
		}
	}

	oracleMark := rec.mark()
	oracle := measure(rec, w, collectorSC)
	count(oracle)
	if oracle.err != nil {
		fail("oracle iteration under %s: %v", collectorSC, oracle.err)
		return out
	}

	var first *result
	begin := time.Now()
	for i := 1; i <= minIterations || time.Since(begin).Seconds() < seconds; i++ {
		m := measure(nil, w, collectorRT)
		count(m)
		if m.err != nil {
			fail("iteration %d: %v", i, m.err)
			continue
		}
		if err := agree(oracle.res, m.res); err != nil {
			fail("iteration %d: %v", i, err)
		}
		if first == nil {
			first = m.res
		} else if m.res.fingerprint != first.fingerprint {
			fail("iteration %d: simulated run differs from iteration 1 (fingerprint %016x, want %016x)",
				i, m.res.fingerprint, first.fingerprint)
		}
		out.iterations++
		for name, v := range m.host {
			out.samples[name] = append(out.samples[name], v)
		}
	}
	if first == nil {
		return out
	}
	out.fingerprint = first.fingerprint
	for k, v := range first.values {
		out.metrics[k] = v
	}
	for name, vs := range out.samples {
		_, out.metrics[name], _ = quartiles(vs)
	}
	out.metrics["harness.iterations"] = float64(out.iterations)
	out.metrics["harness.run_q1_s"], _, out.metrics["harness.run_q3_s"] = quartiles(out.samples["host_run_s"])
	// The high-water mark covers the oracle and the timed iterations, which
	// every run has, and is read before a traced run adds its probes.
	out.metrics["host_peak_rss_mb"] = peakRSSMB()

	if traced {
		// Several traced iterations, so that one slow sample does not pass
		// for tracing overhead; the layers are read off the median one.
		type tracedRun struct {
			m     measured
			spans [2]int
		}
		oracleSpans := [2]int{oracleMark, rec.mark()}
		var runs []tracedRun
		for i := 1; i <= tracedIterations; i++ {
			from := rec.mark()
			m := measure(rec, w, collectorRT)
			count(m)
			switch {
			case m.err != nil:
				fail("traced iteration %d: %v", i, m.err)
			case m.res.fingerprint != first.fingerprint:
				fail("traced iteration %d: simulated run differs from the untraced ones", i)
			default:
				runs = append(runs, tracedRun{m, [2]int{from, rec.mark()}})
			}
		}
		if len(runs) == tracedIterations {
			sort.Slice(runs, func(a, b int) bool { return runs[a].m.runS() < runs[b].m.runS() })
			mid := runs[len(runs)/2]
			layerMetrics(out, rec.spans, oracleSpans, mid.spans, oracle.res, mid.m)
			if err := layerProbes(out, rec, w, first); err != nil {
				fail("layer probes: %v", err)
			}
		}
		out.spans = rec.spans
	}
	return out
}

// agree holds an rt iteration against the sc oracle iteration: both must
// have computed the same thing, with nothing left unserved.
func agree(oracle, r *result) error {
	if r.output != oracle.output {
		return fmt.Errorf("output differs across collectors:\n  %s: %q\n  %s: %q",
			collectorSC, oracle.output, collectorRT, r.output)
	}
	if r.unserved > 0 {
		return errors.New("requests left unserved")
	}
	return nil
}
