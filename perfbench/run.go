package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fpvm"
	"fpvm/internal/obj"
	"fpvm/internal/oracle"
	"fpvm/internal/telemetry"
	"fpvm/internal/workloads"
)

// Set-ups are timed in batches spread through an untraced run: one batch
// before each segment of the timed section and one after the last, so
// setup_s samples the host over the same span as the timed metrics rather
// than in one burst at the start. Each batch runs at least one set-up, and
// more until it has spent its share of setupBudget, at most setupsPerBatch.
// A traced run times one batch, before its timed section, with the whole
// budget.
const (
	setupsPerBatch = 8
	setupBudget    = 2 * time.Second
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	check    bool // untimed correctness pass: one pass, no metrics
	workdir  string
}

// figure is one reported metric value.
type figure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// run is the state of one benchmark invocation.
type run struct {
	opts options
	tr   *tracer
	figs map[string]figure

	attempted int
	failed    int
	failures  []string // the first few failure descriptions
	sections  []section
}

func newRun(opts options) *run {
	return &run{opts: opts, tr: newTracer(opts.trace), figs: make(map[string]figure)}
}

// set records a figure; its unit follows from its name (see unitOf).
func (r *run) set(name string, value float64, n int, note string) {
	r.figs[name] = figure{Value: value, Unit: unitOf(name), N: n, Note: note}
}

// outcome counts one attempted operation; a non-nil err counts it failed.
func (r *run) outcome(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

// window is how long the timed section of this run lasts.
func (r *run) window() time.Duration { return time.Duration(r.opts.seconds) * time.Second }

// prog is one guest program of a workload.
type prog struct {
	name    string
	orig    *obj.Image // as built: the native baseline runs this
	patched *obj.Image // what FPVM runs
}

// ref is the part of a run's result the correctness gate compares.
type ref struct {
	Stdout   string
	ExitCode int
	Cycles   uint64
	Digest   string
}

// digest renders oracle.Digest of a result's final state in the format
// fpvmd reports in JobOutcome.Digest.
func digest(res *fpvm.Result) string {
	if res == nil || res.Final == nil {
		return ""
	}
	rec := oracle.Digest(res.Final)
	return fmt.Sprintf("%016x-%016x", rec.RIP, rec.Sum)
}

// gate compares a result with the reference run of the same program and
// configuration: digest, exit code and stdout always, cycles when set.
type gate struct {
	cycles bool // only where no shared cache makes cycles schedule-dependent
}

// compare reports the first field of got that differs from want.
func (g gate) compare(name string, want, got ref) error {
	switch {
	case got.Digest != want.Digest:
		return fmt.Errorf("%s: digest %s, want %s", name, got.Digest, want.Digest)
	case got.ExitCode != want.ExitCode:
		return fmt.Errorf("%s: exit code %d, want %d", name, got.ExitCode, want.ExitCode)
	case got.Stdout != want.Stdout:
		return fmt.Errorf("%s: stdout differs (%d bytes, want %d)", name, len(got.Stdout), len(want.Stdout))
	case g.cycles && got.Cycles != want.Cycles:
		return fmt.Errorf("%s: %d cycles, want %d", name, got.Cycles, want.Cycles)
	}
	return nil
}

func refOf(res *fpvm.Result) ref {
	return ref{Stdout: res.Stdout, ExitCode: res.ExitCode, Cycles: res.Cycles, Digest: digest(res)}
}

// buildProgs builds and patches names under parent, spanning each call.
func buildProgs(r *run, parent int, names []workloads.Name, build func(workloads.Name) (*obj.Image, error), buildName string) ([]prog, error) {
	progs := make([]prog, 0, len(names))
	for _, n := range names {
		id := r.tr.begin(buildName, string(n), parent, -1)
		img, err := build(n)
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", n, err)
		}
		id = r.tr.begin("fpvm.PrepareForFPVM", string(n), parent, -1)
		patched, err := fpvm.PrepareForFPVM(img, true)
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("patch %s: %w", n, err)
		}
		progs = append(progs, prog{name: string(n), orig: img, patched: patched})
	}
	return progs, nil
}

// setups times a workload's set-up: build is called once for the fixture
// the run uses and again, in batches, for set-ups that are torn down at
// once and only timed.
type setups[T any] struct {
	r     *run
	build func(parent int) (T, func(), error)
	secs  []float64
	roots []int // the root span of each traced set-up
}

func newSetups[T any](r *run, build func(parent int) (T, func(), error)) *setups[T] {
	return &setups[T]{r: r, build: build}
}

// one times one set-up.
func (s *setups[T]) one() (T, func(), error) {
	root := s.r.tr.begin("setup", "", -1, -1)
	t0 := time.Now()
	f, td, err := s.build(root)
	d := time.Since(t0)
	s.r.tr.end(root)
	if err != nil {
		var zero T
		return zero, nil, fmt.Errorf("setup: %w", err)
	}
	s.secs = append(s.secs, d.Seconds())
	if root >= 0 {
		s.roots = append(s.roots, root)
	}
	return f, td, nil
}

// fixture builds the fixture the run uses (a single set-up in check mode)
// followed by the first batch of timed set-ups.
func (s *setups[T]) fixture() (T, func(), error) {
	f, td, err := s.one()
	if err != nil || s.r.opts.check {
		return f, td, err
	}
	budget, n := setupBudget/(untracedSegments+1), setupsPerBatch
	if s.r.opts.trace {
		budget, n = setupBudget, setupsPerBatch*(untracedSegments+1)
	}
	if err := s.batch(budget, n-1); err != nil {
		td()
		var zero T
		return zero, nil, err
	}
	return f, td, nil
}

// batch runs up to n set-ups, at least one, until they have taken budget,
// tearing each down at once. It first collects the garbage the timed
// segment before it left, so every batch starts from a heap like the one
// the set-up at process start sees.
func (s *setups[T]) batch(budget time.Duration, n int) error {
	runtime.GC()
	var spent time.Duration
	for i := 0; i < n && (i == 0 || spent < budget); i++ {
		t0 := time.Now()
		_, td, err := s.one()
		spent += time.Since(t0)
		if err != nil {
			return err
		}
		td()
	}
	return nil
}

// between is the batch an untraced run times between segments.
func (s *setups[T]) between() error {
	return s.batch(setupBudget/(untracedSegments+1), setupsPerBatch)
}

// record sets setup_s and, in a traced run, the per-set-up totals of the
// traced set-up calls.
func (s *setups[T]) record() {
	r := s.r
	r.set("setup_s", median(s.secs), len(s.secs), "median of set-ups timed in batches through the run")
	if !r.opts.trace {
		return
	}
	spans := r.tr.snapshot()
	for _, c := range []struct{ metric, span string }{
		{"workloads.build_ms", "workloads.Build"},
		{"rewrite.patch_ms", "fpvm.PrepareForFPVM"},
		{"service.register_ms", "POST /v1/images"},
	} {
		var per []float64
		for _, root := range s.roots {
			per = append(per, childSumMS(spans, root, c.span))
		}
		r.set(c.metric, median(per), len(per), "per set-up total, median")
	}
}

// programSetups is the set-up of the workloads that run programs
// directly: build and patch them.
func programSetups(r *run, names []workloads.Name, build func(workloads.Name) (*obj.Image, error), buildSpan string) *setups[[]prog] {
	return newSetups(r, func(parent int) ([]prog, func(), error) {
		progs, err := buildProgs(r, parent, names, build, buildSpan)
		return progs, func() {}, err
	})
}

// childSumMS sums the durations of parent's direct children named name
// (name is matched as a prefix so workloads.Build covers BuildMicro).
func childSumMS(spans []span, parent int, name string) float64 {
	var total float64
	for _, s := range spans {
		if s.Parent == parent && strings.HasPrefix(s.Name, name) {
			total += float64(s.dur()) / 1e6
		}
	}
	return total
}

// runJob prepares and runs one whole (unsliced) job with spans.
func runJob(r *run, p prog, cfg fpvm.Config, parent, job int) (*fpvm.Result, error) {
	id := r.tr.begin("fpvm.Prepare", p.name, parent, job)
	vm, err := fpvm.Prepare(p.patched, cfg)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", p.name, err)
	}
	id = r.tr.begin("VM.Run", p.name, parent, job)
	res, err := vm.Run()
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", p.name, err)
	}
	return res, nil
}

// tracedDigest computes a result's digest inside an oracle.Digest span.
func tracedDigest(r *run, res *fpvm.Result, name string, parent, job int) ref {
	id := r.tr.begin("oracle.Digest", name, parent, job)
	got := refOf(res)
	r.tr.end(id)
	return got
}

// references runs every program once, unsliced on a private cache, and
// returns the results the correctness gate and the virtual-clock figures
// use. When native is set, each result's stdout must also equal the
// native run's.
func references(r *run, progs []prog, cfg fpvm.Config, native bool) (map[string]*fpvm.Result, error) {
	out := make(map[string]*fpvm.Result, len(progs))
	for _, p := range progs {
		res, err := runJob(r, p, cfg, -1, -1)
		if err != nil {
			return nil, err
		}
		out[p.name] = res
		if native {
			nat, err := fpvm.RunNative(p.orig)
			if err != nil {
				return nil, fmt.Errorf("%s: native run: %w", p.name, err)
			}
			var gerr error
			if nat.Stdout != res.Stdout {
				gerr = fmt.Errorf("%s: FPVM stdout differs from native (%d vs %d bytes)", p.name, len(res.Stdout), len(nat.Stdout))
			}
			r.outcome(gerr)
		}
	}
	return out, nil
}

// virtualFigures records the virtual-clock statistics of one reference
// run per program: deterministic, and bit-identical across hosts and
// across host-only changes.
func virtualFigures(r *run, refs map[string]*fpvm.Result) {
	var (
		total                                                 uint64
		cats                                                  [telemetry.NumCategories]uint64
		traps, emul, native, hits, misses, div, execs, deopts uint64
		gcs, promo, demo                                      uint64
	)
	for _, res := range refs {
		total += res.Cycles
		if res.Breakdown != nil {
			for i, c := range res.Breakdown.Cycles {
				cats[i] += c
			}
		}
		traps += res.Traps
		emul += res.EmulatedInsts
		native += res.Instructions
		hits += res.TraceHits
		misses += res.TraceMisses
		div += res.TraceDivergences
		execs += res.JITExecs
		deopts += res.JITDeopts
		gcs += res.GCRuns
		promo += res.Promotions
		demo += res.Demotions
	}
	n := len(refs)
	const note = "one reference run per program, summed"
	r.set("vcycles.total", float64(total), n, note)
	for _, c := range telemetry.Categories() {
		r.set("vcycles."+c.String(), float64(cats[c]), n, note)
	}
	r.set("vm.traps", float64(traps), n, note)
	r.set("vm.emulated_insts", float64(emul), n, note)
	r.set("vm.native_insts", float64(native), n, note)
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	r.set("dcache.trace_hit_rate", rate, int(hits+misses), "trace hits / sequence traps")
	r.set("dcache.trace_divergences", float64(div), n, note)
	r.set("jit.execs", float64(execs), n, note)
	r.set("jit.deopts", float64(deopts), n, note)
	r.set("heap.gc_runs", float64(gcs), n, note)
	r.set("heap.promotions", float64(promo), n, note)
	r.set("heap.demotions", float64(demo), n, note)
}

// hostFigures records, per program, the median VM.Run time, the native
// machine's host ns per retired instruction, and the trap path's host ns
// per trap. It runs each program natively reps times under spans.
func hostFigures(r *run, progs []prog, refs map[string]*fpvm.Result, reps int) error {
	insts := make(map[string]uint64, len(progs))
	for _, p := range progs {
		for i := 0; i < reps; i++ {
			id := r.tr.begin("fpvm.RunNative", p.name, -1, -1)
			nat, err := fpvm.RunNative(p.orig)
			r.tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: native run: %w", p.name, err)
			}
			// The native baseline runs the unpatched image, whose retired
			// instruction count is the natively executed work.
			insts[p.name] = nat.Instructions
		}
	}
	spans := r.tr.snapshot()
	for _, p := range progs {
		runs := durationsMS(spans, "VM.Run", p.name)
		nat := durationsMS(spans, "fpvm.RunNative", p.name)
		runMS, natMS := median(runs), median(nat)
		r.set("fpvm.run_ms."+p.name, runMS, len(runs), "median VM.Run span")
		if insts[p.name] > 0 {
			r.set("machine.ns_per_inst."+p.name, natMS*1e6/float64(insts[p.name]), len(nat),
				"median fpvm.RunNative ns / retired instructions")
		}
		if traps := refs[p.name].Traps; traps > 0 {
			r.set("fpvm.overhead_ns_per_trap."+p.name, (runMS-natMS)*1e6/float64(traps), len(runs),
				"(median VM.Run - median RunNative) / traps")
		}
	}
	return nil
}

// memDelta records Go runtime figures over a timed section.
func memDelta(r *run, sec section, jobs int) {
	before, after := &sec.before, &sec.after
	if jobs > 0 {
		r.set("goruntime.alloc_mb_per_job", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(jobs), jobs, "TotalAlloc delta / jobs")
	}
	r.set("goruntime.gc_cycles", float64(after.NumGC-before.NumGC), 1, "NumGC delta over the timed section")
	r.set("goruntime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, 1, "PauseTotalNs delta over the timed section")
}

// closedTailP is the latency_ms_tail percentile of the workloads that run
// jobs back to back. A run makes a few hundred jobs there, which p90 (100
// samples) leaves room for but p99 (1000) does not.
const closedTailP = 90

// latencyFigures records latency_ms_p50 and latency_ms_tail at the
// workload's tail percentile from per-job latencies in ms.
func latencyFigures(r *run, lat []float64, tailP float64, what string) error {
	s := sorted(lat)
	p50, err := percentile(s, 50)
	if err != nil {
		return fmt.Errorf("latency_ms_p50: %w", err)
	}
	r.set("latency_ms_p50", p50, len(s), what)
	return tailFigure(r, s, tailP, what)
}

// tailFigure records latency_ms_tail, the tailP-th percentile of sorted
// per-job latencies in ms.
func tailFigure(r *run, sorted []float64, tailP float64, what string) error {
	tail, err := percentile(sorted, tailP)
	if err != nil {
		return fmt.Errorf("latency_ms_tail: %w", err)
	}
	r.set("latency_ms_tail", tail, len(sorted), fmt.Sprintf("p%g of %s", tailP, what))
	return nil
}

// mixLatencyFigures records the latencies of a loop that runs every
// program once per pass. The p50 of the pooled jobs would sit on the gap
// between two programs whenever the mix has an even number of them, and
// would read the slowest job of the faster half; so latency_ms_p50 is the
// geometric mean over programs of each program's median latency, which
// every program moves in proportion to its change. latency_ms_tail is the
// pooled percentile, which lies inside the slowest program's latencies.
func mixLatencyFigures(r *run, byProg map[string][]float64, what string) error {
	var all []float64
	logSum := 0.0
	for _, lat := range byProg {
		all = append(all, lat...)
		logSum += math.Log(median(lat))
	}
	if len(byProg) == 0 {
		return fmt.Errorf("latency_ms_p50: no samples")
	}
	r.set("latency_ms_p50", math.Exp(logSum/float64(len(byProg))), len(all),
		fmt.Sprintf("geometric mean over %d programs of the median %s", len(byProg), what))
	return tailFigure(r, sorted(all), closedTailP, what)
}

// peakRSSMB reads the process's high-water resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the kernel's high-water mark at the current
// resident set size ("5" in clear_refs, Linux 4.0 and later).
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// rssSampler records the peak resident set size of each one-second
// interval of a timed segment, and of the partial interval that ends it.
// One peak over a whole run depends on where a GC cycle happened to land;
// the median interval peak repeats from run to run.
type rssSampler struct {
	quit  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// startRSS resets the high-water mark and starts sampling. A host whose
// mark cannot be reset fails the run: the process-wide peak is a
// different quantity and would not compare with other runs.
func startRSS() (*rssSampler, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("peak_rss_mb: reset VmHWM: %w", err)
	}
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if err := s.sample(); err != nil {
					s.err = err
					return
				}
			}
		}
	}()
	return s, nil
}

// sample appends the peak since the last reset and resets the mark.
func (s *rssSampler) sample() error {
	mb, err := peakRSSMB()
	if err == nil {
		err = resetPeakRSS()
	}
	if err != nil {
		return fmt.Errorf("peak_rss_mb: %w", err)
	}
	s.peaks = append(s.peaks, mb)
	return nil
}

// stop ends sampling, takes the peak of the final partial interval and
// returns every interval peak.
func (s *rssSampler) stop() ([]float64, error) {
	close(s.quit)
	<-s.done
	if s.err == nil {
		s.err = s.sample()
	}
	return s.peaks, s.err
}

// programNames lists every program any workload runs, in figure order.
func programNames() []string {
	var out []string
	for _, n := range workloads.All() {
		out = append(out, string(n))
	}
	sort.Strings(out)
	return out
}

// section is the outcome of a timed section.
type section struct {
	rates         []float64
	before, after runtime.MemStats
	wall, cpu     time.Duration // elapsed and process CPU (user+sys) time of the segments
}

// untracedSegments is how many segments an untraced run splits its window
// into, with a batch of set-ups between each two (see setupBudget).
const untracedSegments = 5

// traceSegments is how many alternating untraced and traced segments a
// traced run splits its window into, so host drift during the run
// affects both sides of the tracing-overhead comparison alike.
const traceSegments = 6

// maxStretch bounds how far past its window an untraced run may go to
// collect the samples its tail percentile needs: a run that is that much
// slower fails, within the command's time limit, instead of running on.
const maxStretch = 4

// timedLoop is the timed work of a workload.
type timedLoop struct {
	// loop runs the workload for one segment of the window and returns the
	// segment's rates (one per pass or per one-second bin).
	loop func(window time.Duration) []float64
	// samples is how many latency samples the run has collected so far,
	// and need how many its tail percentile needs.
	samples func() int
	need    int
	// between runs a batch of set-ups between untraced segments.
	between func() error
}

// timed runs the timed section. An untraced run splits its window into
// untracedSegments segments with set-up batches between them (and after
// the last), and adds segments past the window until it has the latency
// samples it needs, so a slow run is measured rather than failed. A traced
// run alternates segments with tracing off and on, returns the traced
// segments' rates, and records trace.overhead_pct from the two medians.
// The memory statistics cover the whole section; the peak RSS covers the
// segments only.
func timed(r *run, tl timedLoop) (section, error) {
	var (
		sec   section
		peaks []float64
	)
	segment := func(window time.Duration) ([]float64, error) {
		rss, err := startRSS()
		if err != nil {
			return nil, err
		}
		t0, cpu0 := time.Now(), cpuTime()
		rates := tl.loop(window)
		sec.wall += time.Since(t0)
		sec.cpu += cpuTime() - cpu0
		p, err := rss.stop()
		peaks = append(peaks, p...)
		return rates, err
	}
	runtime.ReadMemStats(&sec.before)
	if !r.opts.trace {
		seg := r.window() / untracedSegments
		for i := 0; i < untracedSegments || (tl.samples() < tl.need && sec.wall < maxStretch*r.window()); i++ {
			if i > 0 {
				if err := tl.between(); err != nil {
					return sec, err
				}
			}
			rates, err := segment(seg)
			if err != nil {
				return sec, err
			}
			sec.rates = append(sec.rates, rates...)
		}
		if err := tl.between(); err != nil {
			return sec, err
		}
	} else {
		var untraced []float64
		for i := 0; i < traceSegments; i++ {
			r.tr.on = i%2 == 1
			rates, err := segment(r.window() / traceSegments)
			if err != nil {
				return sec, err
			}
			if r.tr.on {
				sec.rates = append(sec.rates, rates...)
			} else {
				untraced = append(untraced, rates...)
			}
		}
		overhead(r, median(untraced), median(sec.rates))
	}
	runtime.ReadMemStats(&sec.after)
	r.sections = append(r.sections, sec)
	r.set("peak_rss_mb", median(peaks), len(peaks), "median over 1 s intervals of the interval's peak RSS (VmHWM)")
	return sec, nil
}

// overhead records how much slower the traced half ran than the untraced
// one, as a percentage of the untraced rate.
func overhead(r *run, untraced, traced float64) {
	if untraced > 0 {
		r.set("trace.overhead_pct", 100*(untraced-traced)/untraced, 2,
			fmt.Sprintf("untraced %.3f/s vs traced %.3f/s", untraced, traced))
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
