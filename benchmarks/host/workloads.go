package main

import (
	_ "embed"
	"fmt"
	"sort"
	"strings"
	"time"

	"repligc/internal/bytecode"
	"repligc/internal/checkpoint"
	"repligc/internal/core"
	"repligc/internal/gctest"
	"repligc/internal/heap"
	"repligc/internal/lang"
	"repligc/internal/rng"
	"repligc/internal/simtime"
	"repligc/internal/trace"
	"repligc/internal/vm"
	serving "repligc/internal/workload"
)

// The benchmark keeps its own copies of the program texts and the serving
// spec, so that input size and seed are its own and an edit to an example
// elsewhere in the repository cannot move a baseline.
var (
	//go:embed inputs/primes.ml
	primesSource string
	//go:embed inputs/sort.ml
	sortSource string
	//go:embed inputs/serve.json
	serveSpecJSON []byte
)

// workloadNames lists the workloads in the order the suite runs them.
var workloadNames = []string{"primes", "sort", "comp", "serve", "group4"}

// newWorkload makes the named workload's inputs from seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "primes":
		return newPrimes(seed), nil
	case "sort":
		return newSort(seed), nil
	case "comp":
		return newComp(seed), nil
	case "serve":
		return newServe(seed)
	case "group4":
		return &groupWorkload{seed: int64(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// harvest adds the counters of one finished run to v. Counts accumulate
// across the legs of an iteration; deriveRatios turns them into ratios.
func harvest(r *rig, v map[string]float64) {
	members := []*core.Mutator{r.mut}
	if r.group != nil {
		members = r.group.Members
	}
	for _, m := range members {
		v["mutator.alloc_mb"] += float64(m.BytesAllocated) / (1 << 20)
		v["mutator.log_writes"] += float64(m.LogWrites)
		v["mutator.barrier_fast_skips"] += float64(m.BarrierFastSkips)
		v["mutator.barrier_dirty_skips"] += float64(m.BarrierDirtySkips)
	}
	clk := r.mut.Clock
	ms := func(as ...simtime.Account) float64 {
		var d simtime.Duration
		for _, a := range as {
			d += clk.AccountTotal(a)
		}
		return d.Milliseconds()
	}
	v["mutator.sim_alloc_ms"] += ms(simtime.AcctAlloc)
	v["collector.sim_root_scan_ms"] += ms(simtime.AcctRootScan)
	v["collector.sim_log_replay_ms"] += ms(simtime.AcctLogScan, simtime.AcctLogReapply)
	v["collector.sim_copy_ms"] += ms(simtime.AcctMinorCopy, simtime.AcctMajorCopy)
	v["collector.sim_flip_ms"] += ms(simtime.AcctFlip)
	v["sim_total_ms"] += clk.Now().Milliseconds()

	st := r.gc.Stats()
	v["collector.calls"] += float64(r.gc.calls)
	v["collector.pauses"] += float64(st.PauseCount)
	v["collector.minor"] += float64(st.MinorCollections)
	v["collector.major"] += float64(st.MajorCollections)
	v["collector.copied_mb"] += float64(st.TotalBytesCopied()) / (1 << 20)
	v["collector.log_scanned"] += float64(st.LogScanned)
	v["collector.log_reapplied"] += float64(st.LogReapplied)
	v["collector.root_slot_updates"] += float64(st.RootSlotUpdates)
	v["collector.flip_entry_updates"] += float64(st.FlipEntryUpdates)
	v["collector.forced_completions"] += float64(st.ForcedCompletion)
	v["collector.emergency_collections"] += float64(st.EmergencyCollections)
	v["heap.arena_mb"] = float64(r.arenaBytes) / (1 << 20)
}

// ratio is a/b, 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deriveRatios computes the ratios that harvest's sums support.
func deriveRatios(v map[string]float64) {
	skips := v["mutator.barrier_fast_skips"] + v["mutator.barrier_dirty_skips"]
	v["mutator.barrier_skip_ratio"] = ratio(skips, skips+v["mutator.log_writes"])
	v["collector.reapply_ratio"] = ratio(v["collector.log_reapplied"], v["collector.log_scanned"])
	gc := v["collector.sim_root_scan_ms"] + v["collector.sim_log_replay_ms"] +
		v["collector.sim_copy_ms"] + v["collector.sim_flip_ms"]
	v["collector.sim_share"] = ratio(gc, v["sim_total_ms"])
	delete(v, "sim_total_ms")
}

// result assembles what a single-rig iteration measured: the gated sim_
// metrics from the pause digest, the fingerprint, and the layer counters.
// Call it before anything else charges the clock.
func (r *rig) result(t0, t1 time.Time, elapsed simtime.Duration, pauses []simtime.Pause, d pauseDigest, output string) *result {
	res := &result{setup: t1.Sub(t0), run: time.Since(t1), output: output, values: map[string]float64{}}
	d.store(res.values, elapsed)
	h := newSimHash()
	h.leg(elapsed, pauses, output)
	res.fingerprint = h.Sum64()
	harvest(r, res.values)
	deriveRatios(res.values)
	return res
}

// finishRun drives pending collection cycles to completion inside a
// "finish" span and returns the run's elapsed simulated time.
func finishRun(rec *recorder, r *rig) (simtime.Duration, error) {
	s := rec.begin("finish")
	err := r.gc.FinishCycles(r.mut)
	rec.end(s)
	return r.mut.Clock.Now(), err
}

// ---------------------------------------------------------------- MiniML

// vmWorkload compiles one MiniML program with lang and runs it on vm.
type vmWorkload struct {
	about string
	src   string
	want  string // the native oracle's expectation, a prefix of the output

	// probed marks the program the trace and checkpoint layer probes re-run,
	// with the repository's flight recorder or checkpoint writer attached.
	probed bool
	tr     *trace.Recorder
	ckpt   *checkpoint.Writer
}

func (w *vmWorkload) describe() string { return w.about }

func (w *vmWorkload) iterate(rec *recorder, collector string) (*result, error) {
	t0 := time.Now()
	s := rec.begin("setup")
	r, err := newRig(rec, paperParams, collector, 1, w.tr)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	var rep *core.Replicating
	if w.ckpt != nil {
		rep = r.gc.inner.(*core.Replicating) // the probe runs under rt only
		rep.SetCheckpointer(w.ckpt)
	}
	t1 := time.Now()

	run := rec.begin("run")
	c := rec.begin("lang.compile")
	prog, err := lang.Compile(r.mut, w.src)
	rec.end(c)
	if err != nil {
		rec.end(run)
		return nil, fmt.Errorf("compile: %w", err)
	}
	x := rec.begin("vm.run")
	machine := vm.New(r.mut, prog)
	machine.MaxSteps = 4_000_000_000
	err = machine.Run()
	rec.end(x)
	rec.end(run)
	if err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	if out := machine.Output.String(); !strings.HasPrefix(out, w.want) {
		return nil, fmt.Errorf("output %q, the native oracle wants prefix %q", out, w.want)
	}
	elapsed, err := finishRun(rec, r)
	if err != nil {
		return nil, err
	}
	if w.ckpt != nil {
		if err := w.ckpt.ForceCommit(r.mut, rep); err != nil {
			return nil, fmt.Errorf("final checkpoint commit: %w", err)
		}
		elapsed = r.mut.Clock.Now()
	}
	pauses := r.gc.Pauses().Pauses
	res := r.result(t0, t1, elapsed, pauses, digest(rec, pauses, elapsed), machine.Output.String())
	res.values["vm.steps"] = float64(machine.Steps)
	res.values["vm.threads"] = float64(machine.ThreadCount())
	res.values["lang.instrs_emitted"] = float64(countInstrs(prog))
	res.values["lang.src_kb"] = float64(len(w.src)) / 1024
	return res, nil
}

func countInstrs(prog *bytecode.Program) int {
	n := 0
	for _, b := range prog.Blocks {
		n += len(b.Code)
	}
	return n
}

// The sieve has no random input, so the seed sizes a list the program
// builds first and holds to the end: at most a few kilobytes against a
// 200 KB nursery, enough to start every seed's collections at a different
// phase of the program, too little to change what the workload stresses.
const (
	primesCount   = 2200
	primesBallast = 256 // the held list has up to this many cells
)

func newPrimes(seed uint64) *vmWorkload {
	ballast := rng.New(seed).Intn(primesBallast)
	sum, found := 0, 0
	for c := 2; found < primesCount; c++ {
		prime := true
		for d := 2; d*d <= c; d++ {
			if c%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			sum += c
			found++
		}
	}
	return &vmWorkload{
		about: fmt.Sprintf("lazy sieve, first %d primes, %d cells of ballast", primesCount, ballast),
		src: strings.NewReplacer(
			"%COUNT%", fmt.Sprint(primesCount),
			"%BALLAST%", fmt.Sprint(ballast),
		).Replace(primesSource),
		want: fmt.Sprintf("primes-sum %d ballast %d\n", sum, ballast),
	}
}

const (
	sortSize  = 60000
	sortDepth = 4
)

// newSort seeds the program's own generator, then draws the same numbers
// natively, sorts them and computes the checksum the program must print.
func newSort(seed uint64) *vmWorkload {
	lcg := int64(rng.New(seed).Uint64n(1 << 30))
	src := strings.NewReplacer(
		"%SEED%", fmt.Sprint(lcg),
		"%SIZE%", fmt.Sprint(sortSize),
		"%DEPTH%", fmt.Sprint(sortDepth),
	).Replace(sortSource)

	vals := make([]int64, sortSize)
	for i := range vals {
		lcg = (lcg*1103515245 + 12345) % (1 << 30)
		vals[i] = lcg % 1000000
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var sum int64
	for i, v := range vals {
		sum = (sum + v*int64(i+1)) % 1000000007
	}
	return &vmWorkload{
		about: fmt.Sprintf("futures merge sort, %d elements, depth %d", sortSize, sortDepth),
		src:   src,
		want:  fmt.Sprintf("sorted checksum %d draws %d cmps ", sum, sortSize),
		// Mutation, large live data and the longest pauses: the run on
		// which recording and checkpointing cost the most.
		probed: true,
	}
}

// ------------------------------------------------------------------ comp

const (
	compModules  = 12 // generated modules; the two programs above and the prelude make 15
	compReps     = 240
	compRetained = 24 // loaded-code ring: the compiler session's live data
)

// compWorkload is the MiniML compiler compiling a corpus over and over,
// keeping the encoded code of the last compRetained modules on the heap.
// The VM is never entered.
type compWorkload struct {
	sources []string
	order   [][]int // per repetition, the order the modules are compiled in
}

func newComp(seed uint64) *compWorkload {
	w := &compWorkload{}
	for i := 0; i < compModules; i++ {
		defs := 48 + 16*(i%3)
		if i%4 == 0 {
			defs = 80 + 20*(i%3) // a large module: a few hundred KB live while it compiles
		}
		w.sources = append(w.sources, generateModule(seed, i, defs))
	}
	w.sources = append(w.sources,
		strings.NewReplacer("%COUNT%", "10", "%BALLAST%", "1").Replace(primesSource),
		strings.NewReplacer("%SEED%", "1", "%SIZE%", "10", "%DEPTH%", "1").Replace(sortSource),
		lang.Prelude+"0",
	)
	// Each repetition compiles the modules in its own seeded order. Repeating
	// one fixed order lets the collector's schedule lock onto the corpus
	// period for the whole run, and which phase it locks onto turns on a
	// handful of definitions: simulated time then differs by a tenth between
	// near-identical inputs. Shuffling averages over the phases.
	shuffle := rng.New(seed).Split(compModules) // the modules took substreams 0..compModules-1
	for rep := 0; rep < compReps; rep++ {
		order := make([]int, len(w.sources))
		for i := range order {
			order[i] = i
		}
		for i := len(order) - 1; i > 0; i-- {
			j := shuffle.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		w.order = append(w.order, order)
	}
	return w
}

func (w *compWorkload) describe() string {
	return fmt.Sprintf("compiler over a seeded %d-module corpus, %d times, %d-segment retained-code ring",
		len(w.sources), compReps, compRetained)
}

// generateModule writes a MiniML module of n top-level definitions that
// between them use every construct the compiler knows. The module's shape
// follows from id alone; the seed picks the literals and the kind of about
// one definition in sixteen. That keeps the corpus the same size and mix for
// every seed, so seeds differ in schedule, not in workload.
func generateModule(seed uint64, id, n int) string {
	var b strings.Builder
	shape := rng.New(uint64(id))
	lit := rng.New(seed).Split(uint64(id)).Intn
	fmt.Fprintf(&b, "(* generated module %d *)\n", id)
	for i := 0; i < n; i++ {
		kind := shape.Intn(5)
		if lit(16) == 0 {
			kind = lit(5)
		}
		switch kind {
		case 0:
			fmt.Fprintf(&b, "fun f%d_%d x = if x <= 1 then 1 else x * f%d_%d (x - %d) in\n", id, i, id, i, 1+lit(2))
		case 1:
			fmt.Fprintf(&b, "fun g%d_%d l = case l of [] => 0 | x :: r => x + g%d_%d r in\n", id, i, id, i)
		case 2:
			fmt.Fprintf(&b, "fun h%d_%d p = case p of (a, b) => a * %d + b in\n", id, i, 2+lit(7))
		case 3:
			fmt.Fprintf(&b, "let v%d_%d = [%d, %d, %d, %d] in\n", id, i, lit(100), lit(100), lit(100), lit(100))
		default:
			fmt.Fprintf(&b, "let c%d_%d = fn x => (x + %d, x * %d, \"m%d\") in\n", id, i, lit(50), 1+lit(9), i)
		}
	}
	fmt.Fprintf(&b, "let acc = ref 0 in\n")
	fmt.Fprintf(&b, "fun touch%d k = (acc := !acc + k; !acc) in\n", id)
	fmt.Fprintf(&b, "print (itos (touch%d %d) ^ \"\\n\")\n", id, lit(1000))
	return b.String()
}

// loadedCode is the ring of retained code segments, a root source.
type loadedCode struct {
	segs []heap.Value
	next int
}

func (l *loadedCode) VisitRoots(v core.RootVisitor) {
	for i := range l.segs {
		v(&l.segs[i])
	}
}

// load writes prog's encoded code into a fresh heap segment and retains it,
// evicting the oldest.
func (l *loadedCode) load(m *core.Mutator, prog *bytecode.Program, instrs int) error {
	if instrs == 0 {
		return nil
	}
	slot := l.next
	seg, err := m.Alloc(heap.KindBytes, instrs*bytecode.EncodedSize)
	if err != nil {
		return err
	}
	l.segs[slot] = seg
	l.next = (l.next + 1) % len(l.segs)
	var chunk [16 * bytecode.EncodedSize]byte
	off, used := 0, 0
	flush := func() {
		if used > 0 {
			// The stores can collect and move the segment; the ring slot is
			// a root, so read the segment from it each time.
			m.SetByteRange(l.segs[slot], off, chunk[:used])
			off += used
			used = 0
		}
	}
	for _, b := range prog.Blocks {
		for _, ins := range b.Code {
			ins.EncodeInto(chunk[:], used)
			used += bytecode.EncodedSize
			if used == len(chunk) {
				flush()
			}
		}
	}
	flush()
	m.Step(instrs)
	return nil
}

func (w *compWorkload) iterate(rec *recorder, collector string) (*result, error) {
	t0 := time.Now()
	s := rec.begin("setup")
	r, err := newRig(rec, paperParams, collector, 1, nil)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()

	run := rec.begin("run")
	loaded := &loadedCode{segs: make([]heap.Value, compRetained)}
	r.mut.Roots.Register(loaded)
	blocks, instrs, srcBytes := 0, 0, 0
	for rep := 0; rep < compReps && err == nil; rep++ {
		for _, i := range w.order[rep] {
			src := w.sources[i]
			c := rec.begin("lang.compile")
			prog, cerr := lang.Compile(r.mut, src)
			rec.end(c)
			if cerr != nil {
				err = fmt.Errorf("module %d: %w", i, cerr)
				break
			}
			n := countInstrs(prog)
			blocks += len(prog.Blocks)
			instrs += n
			srcBytes += len(src)
			if err = loaded.load(r.mut, prog, n); err != nil {
				break
			}
		}
	}
	rec.end(run)
	if err != nil {
		return nil, err
	}
	elapsed, err := finishRun(rec, r)
	if err != nil {
		return nil, err
	}
	pauses := r.gc.Pauses().Pauses
	res := r.result(t0, t1, elapsed, pauses, digest(rec, pauses, elapsed),
		fmt.Sprintf("compiled blocks=%d instrs=%d\n", blocks, instrs))
	res.values["lang.instrs_emitted"] = float64(instrs)
	res.values["lang.src_kb"] = float64(srcBytes) / 1024
	return res, nil
}

// ----------------------------------------------------------------- serve

// The serving ladder: the spec's rates times 1.00 to 2.50 in steps of 0.25.
// The first step is the base rate, whose leg gives the gated numbers.
var serveLadder = []float64{1.00, 1.25, 1.50, 1.75, 2.00, 2.25, 2.50}

// The latency limit that fixes the knee: interactive p99 within two pause
// budgets at L = 100 KB, and no growing backlog (the last request completes
// within a second of the arrival horizon).
const (
	serveCohort     = "interactive"
	serveP99LimitMs = 100
	serveDrainMs    = 1000
)

// serveWorkload is open-loop serving on the simulated clock: requests are
// due at their trace instants and latency counts from the due instant, so
// the generator cannot run late.
type serveWorkload struct {
	specs []*serving.Spec // one per ladder step, differing only in rates
}

func newServe(seed uint64) (*serveWorkload, error) {
	w := &serveWorkload{}
	for _, f := range serveLadder {
		spec, err := serving.ParseSpec(serveSpecJSON)
		if err != nil {
			return nil, err
		}
		spec.Seed = seed
		for i := range spec.Cohorts {
			spec.Cohorts[i].Arrival.RatePerSec *= f
		}
		w.specs = append(w.specs, spec)
	}
	return w, nil
}

func (w *serveWorkload) describe() string {
	s := w.specs[0]
	return fmt.Sprintf("open-loop serving of %s for %.0f simulated ms at %d rates, %.2fx to %.2fx",
		s.Name, s.DurationMs, len(serveLadder), serveLadder[0], serveLadder[len(serveLadder)-1])
}

// baseRate is the spec's total arrival rate at ladder step 1.00.
func (w *serveWorkload) baseRate() float64 {
	rps := 0.0
	for _, c := range w.specs[0].Cohorts {
		rps += c.Arrival.RatePerSec
	}
	return rps
}

// ladderRow is one served rate, as the knee selection sees it.
type ladderRow struct {
	rps      float64
	p99Ms    float64
	lastMs   float64 // completion time of the last request
	horizon  float64
	unserved bool
}

// meets reports whether the row is within the latency limit.
func (r ladderRow) meets() bool {
	return !r.unserved && r.p99Ms <= serveP99LimitMs && r.lastMs <= r.horizon+serveDrainMs
}

// knee is the highest rate such that it and every lower rate on the ladder
// meet the limit; 0 when the base rate already misses it.
func knee(rows []ladderRow) float64 {
	k := 0.0
	for _, r := range rows {
		if !r.meets() {
			break
		}
		k = r.rps
	}
	return k
}

func (w *serveWorkload) iterate(rec *recorder, collector string) (*result, error) {
	res := &result{values: map[string]float64{}}
	v := res.values
	h := newSimHash()
	var rows []ladderRow
	var outputs []string

	for step, spec := range w.specs {
		// The last leg's arena and trace are garbage by now; without this
		// the peak resident set depends on when the Go collector got to them.
		if step > 0 {
			settle()
		}
		// Set-up: materialise the trace and construct the server.
		t0 := time.Now()
		s := rec.begin("setup")
		g := rec.begin("workload.generate")
		tr, err := serving.Generate(spec)
		rec.end(g)
		var r *rig
		var fr *trace.Recorder
		if err == nil {
			hs := spec.Heap.WithDefaults()
			fr = trace.NewRecorder(1 << 20) // the serving engine always records
			r, err = newRig(rec, heapParams{
				nurseryBytes:   hs.NurseryKB << 10,
				majorBytes:     hs.MajorKB << 10,
				copyLimitBytes: hs.CopyLimitKB << 10,
				oldSemiBytes:   hs.OldMB << 20,
			}, collector, 1, fr)
		}
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("ladder step %.2fx: %w", serveLadder[step], err)
		}
		res.setup += time.Since(t0)
		res.requests += len(tr.Reqs)

		// The oracle iteration also proves record/replay: the encoded trace
		// must decode to the same fingerprint.
		if collector == collectorSC {
			if err := roundTrip(rec, tr, v); err != nil {
				return nil, fmt.Errorf("ladder step %.2fx: %w", serveLadder[step], err)
			}
		}

		t1 := time.Now()
		run := rec.begin("run")
		sv := rec.begin("workload.serve")
		rt := &serving.Runtime{Heap: r.heap, Mutator: r.mut, GC: r.gc, Recorder: fr, Collector: collector}
		leg, err := serving.Serve(rt, tr, fmt.Sprintf("%.2fx", serveLadder[step]), serving.ServeOptions{})
		rec.end(sv)
		rec.end(run)
		if err != nil {
			// Serve aborted: the step's requests went unserved. That is a
			// failure of the run, not of the harness, so keep going.
			res.unserved += len(tr.Reqs)
			rows = append(rows, ladderRow{rps: w.baseRate() * serveLadder[step], unserved: true})
			outputs = append(outputs, "aborted: "+err.Error())
			res.run += time.Since(t1)
			continue
		}
		pauses := r.gc.Pauses().Pauses
		elapsed := simtime.Duration(leg.ElapsedMs * float64(simtime.Millisecond))
		d := digest(rec, pauses, elapsed)
		res.run += time.Since(t1)

		out := fmt.Sprintf("%s requests=%d heap=%s", leg.Name, leg.Requests, leg.HeapFingerprint)
		outputs = append(outputs, out)
		h.leg(elapsed, pauses, out)
		harvest(r, v)
		v["workload.requests"] += float64(leg.Requests)

		cm := interactive(leg)
		rows = append(rows, ladderRow{
			rps: w.baseRate() * serveLadder[step], p99Ms: cm.Latency.P99,
			lastMs: leg.ElapsedMs, horizon: spec.DurationMs,
		})
		if step == 0 {
			d.store(v, elapsed)
			v["sim_lat_p50_ms"] = cm.Latency.P50
			v["sim_lat_p99_ms"] = cm.Latency.P99
			v["sim_lat_p999_ms"] = cm.Latency.P999
			v["sim_slo_miss_share"] = ratio(float64(cm.SLO.Missed), float64(cm.Requests))
			v["workload.queue_max_depth"] = float64(leg.Queue.MaxDepth)
			v["workload.queue_wait_p99_ms"] = cm.QueueWaitP99Ms
			v["workload.gc_intrusion_pct"] = cm.Intrusion.PctOfLatency
			v["workload.idle_share"] = ratio(leg.IdleMs, leg.ElapsedMs)
			for _, c := range leg.Cohorts {
				v["workload.sessions_created"] += float64(c.Sessions)
			}
		}
	}
	deriveRatios(v)
	v["sim_knee_rps"] = knee(rows)
	v["workload.generator_lag_ms"] = 0 // arrivals are trace instants, not wall-clock sends
	res.output = strings.Join(outputs, "\n")
	res.fingerprint = h.Sum64()
	return res, nil
}

// interactive finds the gated cohort's metrics in leg.
func interactive(leg *serving.Leg) serving.CohortMetrics {
	for _, c := range leg.Cohorts {
		if c.Name == serveCohort {
			return c
		}
	}
	return serving.CohortMetrics{}
}

// roundTrip encodes and decodes tr and compares fingerprints.
func roundTrip(rec *recorder, tr *serving.Trace, v map[string]float64) error {
	e := rec.begin("workload.encode")
	data, err := serving.EncodeTrace(tr)
	rec.end(e)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	d := rec.begin("workload.decode")
	back, err := serving.DecodeTrace(data)
	rec.end(d)
	if err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	}
	if got, want := back.Fingerprint(), tr.Fingerprint(); got != want {
		return fmt.Errorf("decoded trace fingerprint %016x, recorded %016x", got, want)
	}
	v["workload.trace_kb"] += float64(len(data)) / 1024
	return nil
}

// ---------------------------------------------------------------- group4

const (
	groupMembers = 4
	groupRounds  = 8000
	groupQuantum = 80  // driver operations per member per round
	groupBlock   = 100 // rounds per recorded span
)

// groupWorkload drives four mutator contexts on one heap with the
// repository's shadow-model torture driver: the only workload with chunked
// nurseries, private logs and the pause-entry merge.
type groupWorkload struct {
	seed int64
}

func (w *groupWorkload) describe() string {
	return fmt.Sprintf("gctest.MultiDriver on a %d-member group, %d rounds of %d-op quanta",
		groupMembers, groupRounds, groupQuantum)
}

func (w *groupWorkload) iterate(rec *recorder, collector string) (*result, error) {
	t0 := time.Now()
	s := rec.begin("setup")
	r, err := newRig(rec, paperParams, collector, groupMembers, nil)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()

	run := rec.begin("run")
	md, err := gctest.NewMultiDriver(r.group, w.seed)
	for round := 0; round < groupRounds && err == nil; round += groupBlock {
		b := rec.begin("group.round-block")
		for i := 0; i < groupBlock && err == nil; i++ {
			err = md.Step(groupQuantum)
		}
		rec.end(b)
	}
	rec.end(run)
	if err != nil {
		return nil, err
	}
	g := r.group
	f := rec.begin("finish")
	err = g.Run(0, func(m *core.Mutator) error { return r.gc.FinishCycles(m) })
	rec.end(f)
	if err != nil {
		return nil, err
	}
	elapsed := g.Elapsed()
	pauses := g.GroupPauses().Pauses
	d := digest(rec, pauses, elapsed)
	res := &result{setup: t1.Sub(t0), run: time.Since(t1), values: map[string]float64{}}
	v := res.values
	d.store(v, elapsed)
	harvest(r, v)
	deriveRatios(v)
	minUtil := 1.0
	for i := range g.Members {
		v["group.work_ms"] += g.Work(i).Milliseconds()
		if u := g.Utilization(i); u < minUtil {
			minUtil = u
		}
	}
	v["group.utilization_min"] = minUtil
	v["group.overlap_ratio"] = g.OverlapRatio()
	v["group.sync_pause_max_ms"] = d.max.Milliseconds()
	v["group.pauses"] = float64(len(pauses))
	v["group.merged_entries"] = float64(g.MergedEntries)
	v["group.merge_dropped"] = float64(g.MergeDropped)

	// Verification re-reads the whole heap through the mutators and charges
	// the clock; it is a correctness gate, not part of the measured run.
	if err := md.Verify(); err != nil {
		return nil, fmt.Errorf("shadow model: %w", err)
	}
	res.output = fmt.Sprintf("group fingerprint %016x\n", md.Fingerprint())
	h := newSimHash()
	h.leg(elapsed, pauses, res.output)
	res.fingerprint = h.Sum64()
	return res, nil
}
