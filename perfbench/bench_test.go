package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"fpvm/internal/service"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, err := percentile(ramp(1000), 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(ramp(999), 99); err == nil {
		t.Fatal("p99 from 999 samples must be refused")
	}
	if v, err := percentile(ramp(100), 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	for _, p := range []float64{50, 90, 99} {
		n := samplesFor(p)
		if _, err := percentile(ramp(n), p); err != nil {
			t.Errorf("p%g from samplesFor = %d samples refused: %v", p, n, err)
		}
		if _, err := percentile(ramp(n-1), p); err == nil {
			t.Errorf("p%g from %d samples must be refused", p, n-1)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
}

func TestLatencyFiguresReportSampleCount(t *testing.T) {
	r := newRun(options{})
	if err := latencyFigures(r, ramp(999), 99, "test"); err == nil {
		t.Fatal("latency_ms_tail at p99 from 999 samples must be refused")
	}
	if err := latencyFigures(r, ramp(1000), 99, "test"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"latency_ms_p50", "latency_ms_tail"} {
		if f := r.figs[name]; f.N != 1000 || f.Unit != "ms" {
			t.Errorf("%s = %+v; want n=1000 in ms", name, f)
		}
	}
	if f := r.figs["latency_ms_tail"]; f.Value != 990 || !strings.Contains(f.Note, "p99") {
		t.Errorf("latency_ms_tail = %+v; want 990 labelled p99", f)
	}
}

func TestMixLatencyIsGeometricMeanOfProgramMedians(t *testing.T) {
	r := newRun(options{})
	// Two programs: the pooled p50 would be 3 (the slowest job of the
	// fast program) whichever way the slow program changed.
	byProg := map[string][]float64{"fast": {1, 2, 3}, "slow": ramp(200)}
	byProg["slow"] = append(byProg["slow"], 300, 400)
	if err := mixLatencyFigures(r, byProg, "test"); err != nil {
		t.Fatal(err)
	}
	if f, want := r.figs["latency_ms_p50"], math.Sqrt(2*101.5); math.Abs(f.Value-want) > 1e-9 || f.N != 205 {
		t.Errorf("latency_ms_p50 = %+v; want %v over 205 samples", f, want)
	}
	if _, ok := r.figs["latency_ms_tail"]; !ok {
		t.Error("no latency_ms_tail")
	}
}

// TestTimedStretchesToNeededSamples checks that an untraced run goes on
// past its window until the tail has its samples, times a set-up batch
// between segments and after the last, and reports a peak RSS for every
// segment.
func TestTimedStretchesToNeededSamples(t *testing.T) {
	r := newRun(options{seconds: 1})
	samples, batches := 0, 0
	sec, err := timed(r, timedLoop{
		loop: func(window time.Duration) []float64 {
			var rates []float64
			for start := time.Now(); time.Since(start) < window; {
				time.Sleep(20 * time.Millisecond)
				samples++
				rates = append(rates, 50)
			}
			return rates
		},
		samples: func() int { return samples },
		need:    100,
		between: func() error { batches++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples < 100 || sec.wall < time.Second {
		t.Errorf("stopped after %d samples in %v; want >= 100 and at least the window", samples, sec.wall)
	}
	segments := len(sec.rates) / 10 // each 200 ms segment makes about 10 passes
	if batches < untracedSegments || batches < segments {
		t.Errorf("%d set-up batches for about %d segments", batches, segments)
	}
	if f := r.figs["peak_rss_mb"]; f.N < untracedSegments || f.Value <= 0 {
		t.Errorf("peak_rss_mb = %+v; want a positive peak from every segment", f)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: ms(0), End: ms(100)},
		// Overlapping children: their union, 10..50, covers 40 ms.
		{ID: 1, Parent: 0, Name: "run", Start: ms(10), End: ms(30)},
		{ID: 2, Parent: 0, Name: "run", Start: ms(20), End: ms(50)},
		// A child running past its parent covers only 90..100.
		{ID: 3, Parent: 0, Name: "digest", Start: ms(90), End: ms(120)},
		// A grandchild is subtracted from its own parent only.
		{ID: 4, Parent: 1, Name: "inner", Start: ms(12), End: ms(18)},
	}
	got := make(map[string]layerTime)
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]struct {
		count       int
		total, self time.Duration
	}{
		"job":    {1, 100 * time.Millisecond, 50 * time.Millisecond},
		"run":    {2, 50 * time.Millisecond, 44 * time.Millisecond},
		"digest": {1, 30 * time.Millisecond, 30 * time.Millisecond},
		"inner":  {1, 6 * time.Millisecond, 6 * time.Millisecond},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.count || g.Total != w.total || g.Self != w.self {
			t.Errorf("%s: got count %d total %v self %v; want %d %v %v", name, g.Count, g.Total, g.Self, w.count, w.total, w.self)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	if id := tr.begin("x", "", -1, -1); id != -1 {
		t.Fatalf("begin on a disabled tracer = %d; want -1", id)
	}
	tr.end(-1)
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("disabled tracer kept %d spans", n)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", "", -1, -1); id != -1 {
		t.Fatal("nil tracer must record nothing")
	}
}

func TestOpenLoopCountsWaitFromDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	// Three requests due at once on one connection: the third waits for
	// the first two, and that wait is part of its latency.
	reqs := openLoop([]time.Duration{0, 0, 0}, 1, func(int) error {
		time.Sleep(service)
		return nil
	})
	last := reqs[2]
	if wait := last.sent.Sub(last.due); wait < 2*service {
		t.Errorf("third request waited %v for the connection; want >= %v", wait, 2*service)
	}
	if lat := last.done.Sub(last.due); lat < 3*service {
		t.Errorf("third request latency %v from its due time; want >= %v", lat, 3*service)
	}
	for i, q := range reqs {
		if lag := q.fired.Sub(q.due); lag < 0 || lag > service {
			t.Errorf("request %d: generator lag %v; want in [0, %v)", i, lag, service)
		}
	}
}

func TestBinRatesSpreadJobsOverBins(t *testing.T) {
	s := time.Second
	rates := binRates([]interval{
		{0, s / 2},         // bin 0
		{s / 2, 3 * s / 2}, // half in each bin
		{3 * s / 2, 5 * s}, // a seventh of it inside the window
	}, 2*s)
	want := []float64{1.5, 0.5 + 1.0/7}
	for i := range want {
		if d := rates[i] - want[i]; d > 1e-9 || d < -1e-9 {
			t.Errorf("bin %d rate %v; want %v", i, rates[i], want[i])
		}
	}
}

func TestGateCatchesTampering(t *testing.T) {
	want := ref{Stdout: "x=1.5\n", ExitCode: 0, Cycles: 100, Digest: "00000000000000aa-00000000000000bb"}
	boxed := gate{cycles: true}
	if err := boxed.compare("p", want, want); err != nil {
		t.Fatalf("identical outputs rejected: %v", err)
	}
	for name, got := range map[string]ref{
		"digest": {Stdout: want.Stdout, Cycles: want.Cycles, Digest: "00000000000000aa-00000000000000bc"},
		"stdout": {Stdout: "x=1.50000001\n", Cycles: want.Cycles, Digest: want.Digest},
		"cycles": {Stdout: want.Stdout, Cycles: 101, Digest: want.Digest},
		"exit":   {Stdout: want.Stdout, ExitCode: 1, Cycles: want.Cycles, Digest: want.Digest},
	} {
		if err := boxed.compare("p", want, got); err == nil || !strings.Contains(err.Error(), "p:") {
			t.Errorf("tampered %s not caught: %v", name, err)
		}
	}
	// Where cycles are schedule-dependent the gate ignores them.
	if err := (gate{}).compare("p", want, ref{Stdout: want.Stdout, Cycles: 7, Digest: want.Digest}); err != nil {
		t.Errorf("cycles compared though the gate excludes them: %v", err)
	}

	r := newRun(options{})
	r.outcome(boxed.compare("p", want, ref{Stdout: "tampered", Cycles: 100, Digest: want.Digest}))
	r.outcome(nil)
	if r.attempted != 2 || r.failed != 1 || len(r.failures) != 1 {
		t.Errorf("attempted %d failed %d; want 2 and 1", r.attempted, r.failed)
	}
}

func TestCheckOutcomeCatchesServedMismatch(t *testing.T) {
	want := ref{Stdout: "ok\n", Digest: "aa-bb"}
	good := &service.JobOutcome{Status: service.StatusCompleted, Stdout: "ok\n", Digest: "aa-bb"}
	if err := checkOutcome("p", want, good, nil); err != nil {
		t.Fatalf("matching outcome rejected: %v", err)
	}
	tampered := *good
	tampered.Digest = "aa-bc"
	shed := *good
	shed.Status = service.StatusShed
	for name, o := range map[string]*service.JobOutcome{"digest": &tampered, "shed": &shed} {
		if err := checkOutcome("p", want, o, nil); err == nil {
			t.Errorf("%s outcome not caught", name)
		}
	}
}

func TestScrapeSumsJobsOverTenants(t *testing.T) {
	text := `# HELP fpvmd_jobs_total job outcomes
fpvmd_jobs_total{status="completed",tenant="a"} 3
fpvmd_jobs_total{status="completed",tenant="b"} 4
fpvmd_jobs_total{status="shed",tenant="b"} 1
fpvmd_pool_hits_total 90
fpvmd_vm_cycles_total{category="hw"} 5
`
	m, err := scrape(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["fpvmd_jobs_total/completed"] != 7 || m["fpvmd_jobs_total/shed"] != 1 || m["fpvmd_pool_hits_total"] != 90 {
		t.Errorf("scrape = %v", m)
	}
	if _, ok := m["fpvmd_vm_cycles_total"]; ok {
		t.Error("labelled series other than jobs must be skipped")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if strings.Join(workloads, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v; benchmark runs %v", workloads, workloadNames)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer()}} {
		if len(c.declared) != len(c.printed) {
			t.Errorf("BENCHMARK.json declares %d metrics, benchmark prints %d", len(c.declared), len(c.printed))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.printed[i] || m.Unit != unitOf(m.Name) {
				t.Errorf("metric %d: declared %s (%s), printed %s (%s)", i, m.Name, m.Unit, c.printed[i], unitOf(c.printed[i]))
			}
		}
	}
}
