// Command perfbench is the repository's benchmark: it measures FPVM's host
// time end to end on four workloads and, in a separate traced run, per
// layer. See README.md for the workloads, the metrics and how to run it.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload whole-boxed --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --check
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any output fails its correctness check or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"

	"fpvm/internal/telemetry"
)

// workloadNames lists the workloads in the order --check runs them.
var workloadNames = []string{"whole-boxed", "whole-mpfr", "fleet-sliced", "fpvmd-http"}

// endToEnd are the metrics of an untraced run.
var endToEnd = []string{"jobs_per_s", "latency_ms_p50", "latency_ms_tail", "setup_s", "peak_rss_mb"}

// perLayer returns the metrics of a traced run.
func perLayer() []string {
	names := []string{
		"workloads.build_ms", "rewrite.patch_ms", "service.register_ms", "fpvm.prepare_ms",
	}
	for _, prefix := range []string{"fpvm.run_ms.", "machine.ns_per_inst.", "fpvm.overhead_ns_per_trap."} {
		for _, p := range programNames() {
			names = append(names, prefix+p)
		}
	}
	names = append(names,
		"checkpoint.snapshot_kb", "checkpoint.decode_ms", "checkpoint.encode_ms", "checkpoint.persist_ms", "fpvm.resume_ms",
		"fleet.makespan_ms", "fleet.slice_overhead", "fleet.preemptions", "fleet.migrations",
		"dcache.shared_hits", "dcache.shared_trace_hits",
		"service.latency_ms_p50", "service.latency_ms_p99", "service.wait_ms_p50", "service.wait_ms_p99", "service.response_ms_p50", "service.response_ms_p99",
		"generator.lag_ms_max",
		"service.pool_hit_rate", "service.pool_lookups", "service.affinity_dispatches", "service.persist_failures",
	)
	for _, st := range serviceStatuses {
		names = append(names, "service.jobs."+st)
	}
	names = append(names, "goruntime.alloc_mb_per_job", "goruntime.gc_cycles", "goruntime.gc_pause_ms", "vcycles.total")
	for _, c := range telemetry.Categories() {
		names = append(names, "vcycles."+c.String())
	}
	return append(names,
		"vm.traps", "vm.emulated_insts", "vm.native_insts", "dcache.trace_hit_rate", "dcache.trace_divergences",
		"jit.execs", "jit.deopts", "heap.gc_runs", "heap.promotions", "heap.demotions",
		"trace.overhead_pct",
	)
}

func main() { os.Exit(runCLI(os.Args[1:], os.Stdout, os.Stderr)) }

func runCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	var trace int
	fs.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&opts.seed, "seed", 1, "workload seed: job order, fleet list order, request arrivals and image mix")
	fs.IntVar(&opts.seconds, "seconds", 25, "length of the timed section in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&opts.check, "check", false, "untimed correctness pass over --workload, or every workload when it is empty")
	fs.StringVar(&opts.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for the files a run writes (spans, snapshot probes)")
	out := fs.String("out", "", "also write the full result (environment, every figure with its sample count) as JSON here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts.trace = trace == 1
	if trace != 0 && trace != 1 || opts.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if opts.check {
		return checkAll(opts, stdout, stderr)
	}
	if !slices.Contains(workloadNames, opts.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", opts.workload, strings.Join(workloadNames, ", "))
		return 2
	}

	env := environment(opts)
	r := newRun(opts)
	if err := runWorkload(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}

	names := endToEnd
	if opts.trace {
		names = perLayer()
		for _, n := range names {
			if _, ok := r.figs[n]; !ok {
				r.set(n, 0, 0, "not exercised by this workload")
			}
		}
	}
	for _, n := range names {
		if _, ok := r.figs[n]; !ok {
			fmt.Fprintf(stderr, "perfbench: %s produced no %s\n", opts.workload, n)
			return 1
		}
	}

	printReport(stdout, env, r, names)
	if opts.trace {
		spans := r.tr.snapshot()
		printSelfTimes(stdout, spans)
		path := filepath.Join(opts.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", opts.workload, opts.seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
	}
	if *out != "" {
		if err := writeResult(*out, env, r); err != nil {
			fmt.Fprintln(stderr, "perfbench: write result:", err)
			return 1
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, n := range names {
		line.Metrics[n] = value{r.figs[n].Value, r.figs[n].Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if r.failed > 0 {
		return 1
	}
	return 0
}

func runWorkload(r *run) error {
	switch r.opts.workload {
	case "whole-boxed":
		return runWhole(r, wholeBoxed)
	case "whole-mpfr":
		return runWhole(r, wholeMPFR)
	case "fleet-sliced":
		return runFleet(r)
	case "fpvmd-http":
		return runServe(r)
	}
	return fmt.Errorf("unknown workload %q", r.opts.workload)
}

// checkAll is the untimed correctness pass: one set-up and one pass of
// each selected workload with every output checked.
func checkAll(opts options, stdout, stderr io.Writer) int {
	names := workloadNames
	if opts.workload != "" {
		if !slices.Contains(workloadNames, opts.workload) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opts.workload)
			return 2
		}
		names = []string{opts.workload}
	}
	code := 0
	for _, w := range names {
		o := opts
		o.workload, o.trace = w, false
		r := newRun(o)
		err := runWorkload(r)
		status := "ok"
		if err != nil || r.failed > 0 {
			status, code = "FAIL", 1
		}
		fmt.Fprintf(stdout, "check %-13s %s: %d checked, %d failed\n", w, status, r.attempted, r.failed)
		if err != nil {
			fmt.Fprintf(stdout, "  error: %v\n", err)
		}
		for _, f := range r.failures {
			fmt.Fprintf(stdout, "  %s\n", f)
		}
	}
	return code
}

// unitOf is the unit a metric reports in, which its name implies.
func unitOf(name string) string {
	switch {
	case name == "jobs_per_s":
		return "1/s"
	case name == "setup_s":
		return "s"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_kb"):
		return "kB"
	case strings.HasSuffix(name, "_mb") || strings.HasSuffix(name, "_mb_per_job"):
		return "MB"
	case strings.HasSuffix(name, "_rate") || strings.HasSuffix(name, "_overhead"):
		return "ratio"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasPrefix(name, "vcycles."):
		return "cycles"
	}
	return "count"
}

func printReport(w io.Writer, env map[string]string, r *run, names []string) {
	mode := "end-to-end"
	if r.opts.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s, %s metrics\n", r.opts.workload, mode)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s: %s\n", k, env[k])
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tnote")
	for _, n := range names {
		f := r.figs[n]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%s\n", n, f.Value, f.Unit, f.N, f.Note)
	}
	for _, sec := range r.sections {
		fmt.Fprintf(tw, "timed section\t%.3f\ts\t\tprocess CPU %.3f s (%.2f of one CPU busy)\n",
			sec.wall.Seconds(), sec.cpu.Seconds(), sec.cpu.Seconds()/sec.wall.Seconds())
	}
	rate := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(tw, "error_rate\t%.6g\tratio\t%d\tfailed / attempted (shed, failed, transport error or mismatch)\n", rate, r.attempted)
	tw.Flush()
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintln(w, "self time per span (span time minus time covered by child spans):")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  span\tcalls\ttotal_ms\tself_ms")
	for _, lt := range selfTimes(spans) {
		fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.3f\n", lt.Name, lt.Count, ms(lt.Total), ms(lt.Self))
	}
	tw.Flush()
}

func writeResult(path string, env map[string]string, r *run) error {
	res := struct {
		Env       map[string]string `json:"env"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Failures  []string          `json:"failures,omitempty"`
		Figures   map[string]figure `json:"figures"`
	}{env, r.attempted, r.failed, r.failures, r.figs}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
