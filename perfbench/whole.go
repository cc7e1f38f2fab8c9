package main

import (
	"math/rand"
	"time"

	"fpvm"
	"fpvm/internal/obj"
	"fpvm/internal/workloads"
)

// wholeSpec describes a closed-loop workload of whole (unsliced) runs:
// one goroutine runs every program once per pass, in a seeded order, each
// job an fpvm.Prepare followed by VM.Run.
type wholeSpec struct {
	names     []workloads.Name
	build     func(workloads.Name) (*obj.Image, error)
	buildSpan string
	cfg       fpvm.Config
	// native: each reference run's stdout must equal the native run's,
	// since Boxed IEEE is bit-exact.
	native bool
}

var wholeBoxed = wholeSpec{
	names:     workloads.All(),
	build:     func(n workloads.Name) (*obj.Image, error) { return workloads.Build(n, 1) },
	buildSpan: "workloads.Build",
	cfg:       fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true, MagicWraps: true},
	native:    true,
}

var wholeMPFR = wholeSpec{
	names:     workloads.MicroAll(),
	build:     workloads.BuildMicro,
	buildSpan: "workloads.BuildMicro",
	cfg:       fpvm.Config{Alt: fpvm.AltMPFR, Precision: 200, Seq: true, Short: true, MagicWraps: true},
}

func runWhole(r *run, spec wholeSpec) error {
	su := programSetups(r, spec.names, spec.build, spec.buildSpan)
	progs, _, err := su.fixture()
	if err != nil {
		return err
	}

	refs, err := references(r, progs, spec.cfg, spec.native)
	if err != nil {
		return err
	}
	want := refsOf(refs)
	g := gate{cycles: true}

	rng := rand.New(rand.NewSource(r.opts.seed))
	var (
		lat  = make(map[string][]float64, len(progs))
		jobs int
	)
	// loop runs whole passes until window has elapsed (a single pass in
	// check mode), so every pass runs the same mix and no pass's rate
	// depends on where the window cut it. It returns the per-pass rates.
	loop := func(window time.Duration) []float64 {
		var rates []float64
		start := time.Now()
		for pass := 0; pass == 0 || (!r.opts.check && time.Since(start) < window); pass++ {
			passID := r.tr.begin("pass", "", -1, -1)
			t0 := time.Now()
			for _, i := range rng.Perm(len(progs)) {
				p := progs[i]
				jobID := r.tr.begin("job", p.name, passID, jobs)
				j0 := time.Now()
				res, err := runJob(r, p, spec.cfg, jobID, jobs)
				if err == nil {
					err = g.compare(p.name, want[p.name], tracedDigest(r, res, p.name, jobID, jobs))
				}
				lat[p.name] = append(lat[p.name], float64(time.Since(j0))/1e6)
				r.tr.end(jobID)
				r.outcome(err)
				jobs++
			}
			rates = append(rates, float64(len(progs))/time.Since(t0).Seconds())
			r.tr.end(passID)
		}
		return rates
	}
	if r.opts.check {
		loop(0)
		return nil
	}

	sec, err := timed(r, timedLoop{loop: loop, samples: func() int { return jobs }, need: samplesFor(closedTailP), between: su.between})
	if err != nil {
		return err
	}
	su.record()
	r.set("jobs_per_s", median(sec.rates), len(sec.rates), "median of per-pass rates")
	if !r.opts.trace {
		return mixLatencyFigures(r, lat, "per-job Prepare+Run")
	}
	memDelta(r, sec, jobs)
	prep := durationsMS(r.tr.snapshot(), "fpvm.Prepare", "")
	r.set("fpvm.prepare_ms", median(prep), len(prep), "median fpvm.Prepare span")
	virtualFigures(r, refs)
	return hostFigures(r, progs, refs, 3)
}
