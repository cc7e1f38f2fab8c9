package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fpvm"
	"fpvm/internal/checkpoint"
	"fpvm/internal/fleet"
	"fpvm/internal/workloads"
)

const (
	// fleetCopies is how many copies of each micro program one fleet
	// pass runs.
	fleetCopies = 4
	// fleetQuantum is the fleet's preemption quantum in virtual cycles.
	fleetQuantum = 100_000
)

// microConfig is the VM configuration fpvmd gives its jobs, which the
// fleet workload shares.
var microConfig = fpvm.Config{Alt: fpvm.AltBoxed, Seq: true, Short: true}

func runFleet(r *run) error {
	su := programSetups(r, workloads.MicroAll(), workloads.BuildMicro, "workloads.BuildMicro")
	progs, _, err := su.fixture()
	if err != nil {
		return err
	}
	refs, err := references(r, progs, microConfig, false)
	if err != nil {
		return err
	}
	want := refsOf(refs)
	// Shared-cache adoption changes which VM pays for a decode, so a
	// job's cycles depend on the schedule; its outputs must not.
	g := gate{}

	var list []fleet.Job
	for _, p := range progs {
		for k := 0; k < fleetCopies; k++ {
			list = append(list, fleet.Job{Name: p.name, Image: p.patched, Config: microConfig})
		}
	}
	rng := rand.New(rand.NewSource(r.opts.seed))
	sliced := fleet.Options{Workers: runtime.NumCPU(), Share: true, PreemptQuantum: fleetQuantum}

	// passStat keeps a pass's report counters; the report itself is not
	// kept, because each job's Result holds its whole VM reachable.
	type passStat struct {
		makespan                       time.Duration
		preempt, migr, hits, traceHits float64
	}
	var (
		lat   []float64
		jobs  int
		stats []passStat
	)
	pass := func(opts fleet.Options) *fleet.Report {
		rng.Shuffle(len(list), func(i, k int) { list[i], list[k] = list[k], list[i] })
		id := r.tr.begin("fleet.Run", "", -1, -1)
		rep := fleet.Run(list, opts)
		r.tr.end(id)
		for _, jr := range rep.Results {
			var err error
			switch {
			case jr.Err != nil:
				err = fmt.Errorf("%s: %w", jr.Name, jr.Err)
			case jr.Result.Preempted:
				err = fmt.Errorf("%s: fleet returned a preempted result", jr.Name)
			default:
				err = g.compare(jr.Name, want[jr.Name], tracedDigest(r, jr.Result, jr.Name, id, jobs))
			}
			r.outcome(err)
			lat = append(lat, float64(jr.Elapsed)/1e6)
			jobs++
		}
		return rep
	}
	loop := func(window time.Duration) []float64 {
		var rates []float64
		start := time.Now()
		for n := 0; n == 0 || (!r.opts.check && time.Since(start) < window); n++ {
			rep := pass(sliced)
			stats = append(stats, passStat{rep.Elapsed, float64(rep.Preemptions), float64(rep.Migrations),
				float64(rep.SharedHits), float64(rep.SharedTraceHits)})
			rates = append(rates, float64(rep.Jobs-rep.Failures)/rep.Elapsed.Seconds())
		}
		return rates
	}
	if r.opts.check {
		loop(0)
		return nil
	}

	sec, err := timed(r, timedLoop{loop: loop, samples: func() int { return len(lat) }, need: samplesFor(closedTailP), between: su.between})
	if err != nil {
		return err
	}
	su.record()
	r.set("jobs_per_s", median(sec.rates), len(sec.rates), "median of per-pass rates (completed jobs / Report.Elapsed)")
	if !r.opts.trace {
		return latencyFigures(r, lat, closedTailP, "per-job JobResult.Elapsed (summed slices)")
	}

	memDelta(r, sec, jobs)
	var makespan, preempt, migr, hits, thits []float64
	for _, st := range stats {
		makespan = append(makespan, ms(st.makespan))
		preempt = append(preempt, st.preempt)
		migr = append(migr, st.migr)
		hits = append(hits, st.hits)
		thits = append(thits, st.traceHits)
	}
	n := len(stats)
	r.set("fleet.makespan_ms", median(makespan), n, "median Report.Elapsed per pass")
	r.set("fleet.preemptions", median(preempt), n, "median per pass")
	r.set("fleet.migrations", median(migr), n, "median per pass")
	r.set("dcache.shared_hits", median(hits), n, "median per pass")
	r.set("dcache.shared_trace_hits", median(thits), n, "median per pass")
	var whole []float64
	for i := 0; i < 3; i++ {
		whole = append(whole, float64(pass(fleet.Options{Workers: sliced.Workers, Share: true}).Elapsed)/1e6)
	}
	r.set("fleet.slice_overhead", median(makespan)/median(whole), len(whole),
		fmt.Sprintf("sliced makespan / unsliced makespan %.1f ms of the same list", median(whole)))
	return layerProbes(r, progs, refs, want, fleetQuantum)
}

// refsOf extracts the gate's view of each reference result.
func refsOf(refs map[string]*fpvm.Result) map[string]ref {
	want := make(map[string]ref, len(refs))
	for name, res := range refs {
		want[name] = refOf(res)
	}
	return want
}

// layerProbes runs the untimed per-layer probes of the sliced workloads:
// repeated whole runs and native runs per program (host figures), and a
// slice walk (checkpoint codec figures).
func layerProbes(r *run, progs []prog, refs map[string]*fpvm.Result, want map[string]ref, quantum uint64) error {
	for i := 0; i < 3; i++ {
		for _, p := range progs {
			if _, err := runJob(r, p, microConfig, -1, -1); err != nil {
				return err
			}
		}
	}
	virtualFigures(r, refs)
	if err := hostFigures(r, progs, refs, 3); err != nil {
		return err
	}
	if err := sliceWalk(r, progs, want, quantum); err != nil {
		return err
	}
	prep := durationsMS(r.tr.snapshot(), "fpvm.Prepare", "")
	r.set("fpvm.prepare_ms", median(prep), len(prep), "median fpvm.Prepare span")
	return nil
}

// sliceWalk runs each program alone as a chain of slices of quantum
// cycles, timing checkpoint.Decode and Image.Encode on every snapshot a
// slice returns, persisting it as fpvmd would with durability on, and
// spanning every fpvm.Resume. It checks the final
// state against the unsliced reference.
func sliceWalk(r *run, progs []prog, want map[string]ref, quantum uint64) error {
	cfg := microConfig
	cfg.PreemptQuantum = quantum
	snapPath := filepath.Join(r.opts.workdir, "slicewalk.snap")
	defer os.Remove(snapPath)
	var kb []float64
	for _, p := range progs {
		walk := r.tr.begin("slicewalk", p.name, -1, -1)
		slice := p
		slice.name += "@slice" // keeps first-slice spans out of fpvm.run_ms
		res, err := runJob(r, slice, cfg, walk, -1)
		for err == nil && res.Preempted {
			snap := res.Snapshot
			kb = append(kb, float64(len(snap))/1000)
			id := r.tr.begin("checkpoint.Decode", p.name, walk, -1)
			img, derr := checkpoint.Decode(snap)
			r.tr.end(id)
			if derr != nil {
				return fmt.Errorf("%s: decode snapshot: %w", p.name, derr)
			}
			id = r.tr.begin("Image.Encode", p.name, walk, -1)
			_, eerr := img.Encode()
			r.tr.end(id)
			if eerr != nil {
				return fmt.Errorf("%s: encode snapshot: %w", p.name, eerr)
			}
			id = r.tr.begin("checkpoint.WriteFileAtomic", p.name, walk, -1)
			perr := checkpoint.WriteFileAtomic(snapPath, snap)
			r.tr.end(id)
			if perr != nil {
				return fmt.Errorf("%s: persist snapshot: %w", p.name, perr)
			}
			id = r.tr.begin("fpvm.Resume", p.name, walk, -1)
			res, err = fpvm.Resume(p.patched, cfg, snap)
			r.tr.end(id)
		}
		if err == nil {
			err = gate{}.compare(p.name+" (slice walk)", want[p.name], refOf(res))
		}
		r.tr.end(walk)
		r.outcome(err)
	}
	spans := r.tr.snapshot()
	dec := durationsMS(spans, "checkpoint.Decode", "")
	enc := durationsMS(spans, "Image.Encode", "")
	persist := durationsMS(spans, "checkpoint.WriteFileAtomic", "")
	res := durationsMS(spans, "fpvm.Resume", "")
	r.set("checkpoint.snapshot_kb", median(kb), len(kb), fmt.Sprintf("median snapshot size at quantum %d", quantum))
	r.set("checkpoint.decode_ms", median(dec), len(dec), "median checkpoint.Decode span")
	r.set("checkpoint.encode_ms", median(enc), len(enc), "median Image.Encode span")
	r.set("checkpoint.persist_ms", median(persist), len(persist), "median checkpoint.WriteFileAtomic span (fsync on the benchmark's disk)")
	r.set("fpvm.resume_ms", median(res), len(res), "median fpvm.Resume span (decode + prepare + one slice)")
	return nil
}
