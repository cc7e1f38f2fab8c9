package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpvm"
	"fpvm/internal/service"
	"fpvm/internal/workloads"
)

const (
	// minSamples is the size of the open-loop phase, and the fewest
	// responses an untraced saturation phase collects: enough for ten
	// samples beyond p99.
	minSamples = 1000
	// nominalRate is the open-loop arrival rate in requests per second,
	// about half the saturation jobs_per_s measured when the benchmark
	// was defined (80/s on 2 vCPUs). It is frozen: changing it changes
	// what latency_ms_* on fpvmd-http mean.
	nominalRate = 40.0
	// latencyLimitMS is the p99 latency limit at nominalRate.
	latencyLimitMS = 500
	// warmupPerImage is how many untimed, checked requests each image
	// gets before the timed phases, filling its shared cache.
	warmupPerImage = 2
	tenant         = "perfbench"
)

// server is an in-process fpvmd at its deployed defaults (4 workers,
// 250k-cycle quantum, warm VM pools) except durability, which is off: the
// only disk the benchmark may write to is shared, and its fsync latency
// set the throughput more than the program did. sliceWalk measures the
// snapshot persist on its own (checkpoint.persist_ms).
type server struct {
	svc   *service.Service
	http  *httptest.Server
	names []string // registered workload names, in MicroAll order
	ids   []string // their image IDs
}

func (s *server) close() {
	s.http.Close()
	s.svc.Drain()
}

// newClient returns an HTTP client with at most nproc keep-alive
// connections.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

// startServer starts fpvmd, registers every micro program over HTTP and
// prewarms the VM pools.
func startServer(r *run, parent int, c *http.Client) (*server, func(), error) {
	id := r.tr.begin("Service.Start", "", parent, -1)
	svc := service.New(service.Config{})
	_, err := svc.Start()
	r.tr.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("start fpvmd: %w", err)
	}
	s := &server{svc: svc, http: httptest.NewServer(svc.Handler())}
	for _, n := range workloads.MicroAll() {
		id := r.tr.begin("POST /v1/images", string(n), parent, -1)
		imageID, err := register(c, s.http.URL, string(n))
		r.tr.end(id)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		s.names = append(s.names, string(n))
		s.ids = append(s.ids, imageID)
	}
	id = r.tr.begin("Service.WarmPools", "", parent, -1)
	svc.WarmPools(fpvm.AltBoxed, 0)
	r.tr.end(id)
	return s, s.close, nil
}

func register(c *http.Client, url, workload string) (string, error) {
	body, _ := json.Marshal(map[string]string{"workload": workload}) // a map of strings always marshals
	resp, err := c.Post(url+"/v1/images", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("register %s: %w", workload, err)
	}
	defer resp.Body.Close()
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("register %s: status %d, %v", workload, resp.StatusCode, err)
	}
	return out.ID, nil
}

// submit posts one synchronous job and returns its outcome.
func (s *server) submit(c *http.Client, img int) (*service.JobOutcome, error) {
	body, _ := json.Marshal(service.JobRequest{Tenant: tenant, ImageID: s.ids[img], Alt: fpvm.AltBoxed}) // plain struct: cannot fail
	resp, err := c.Post(s.http.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var o service.JobOutcome
	if err := json.NewDecoder(resp.Body).Decode(&o); err != nil {
		return nil, fmt.Errorf("decode outcome: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &o, fmt.Errorf("status %d: %s %s", resp.StatusCode, o.Status, o.Detail)
	}
	return &o, nil
}

// checkOutcome gates one served job: it must complete with the reference
// digest and stdout.
func checkOutcome(name string, want ref, o *service.JobOutcome, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if o.Status != service.StatusCompleted {
		return fmt.Errorf("%s: status %s (%s)", name, o.Status, o.Detail)
	}
	return gate{}.compare(name, want, ref{Stdout: o.Stdout, ExitCode: o.ExitCode, Digest: o.Digest})
}

// request is the timing of one open-loop request.
type request struct {
	due   time.Time // when the schedule says it is sent
	fired time.Time // when the generator released it
	sent  time.Time // when a connection took it
	done  time.Time
	err   error
}

// arrivals draws n seeded Poisson arrival offsets at rate per second and
// the image each request runs.
func arrivals(rng *rand.Rand, n int, rate float64, images int) ([]time.Duration, []int) {
	at := make([]time.Duration, n)
	img := make([]int, n)
	var t time.Duration
	for i := range at {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		at[i] = t
		img[i] = rng.Intn(images)
	}
	return at, img
}

// openLoop releases request i at at[i] after the start and sends it on
// one of conns connections. A request waits while every connection is
// busy; its latency still counts from its due time, and how late the
// generator itself released it is recorded too.
func openLoop(at []time.Duration, conns int, send func(i int) error) []request {
	reqs := make([]request, len(at))
	ready := make(chan int, len(at)) // sized to the number of sends: releasing never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				reqs[i].sent = time.Now()
				reqs[i].err = send(i)
				reqs[i].done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		reqs[i].due = start.Add(at[i])
		time.Sleep(time.Until(reqs[i].due))
		reqs[i].fired = time.Now()
		ready <- i
	}
	close(ready)
	wg.Wait()
	return reqs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// serviceQuantum is fpvmd's default preemption quantum.
const serviceQuantum = 250_000

func runServe(r *run) error {
	c := newClient()
	defer c.CloseIdleConnections()
	su := newSetups(r, func(parent int) (*server, func(), error) {
		return startServer(r, parent, c)
	})
	srv, teardown, err := su.fixture()
	if err != nil {
		return err
	}
	defer teardown()

	// References: a direct run of each registered image, which must be
	// the patched micro program this benchmark builds itself.
	progs, err := buildProgs(r, -1, workloads.MicroAll(), workloads.BuildMicro, "workloads.BuildMicro")
	if err != nil {
		return err
	}
	for i, p := range progs {
		h := p.patched.Hash()
		if got := hex.EncodeToString(h[:]); got != srv.ids[i] {
			return fmt.Errorf("%s: registered image %s, built %s", p.name, srv.ids[i], got)
		}
	}
	refs, err := references(r, progs, microConfig, false)
	if err != nil {
		return err
	}
	want := refsOf(refs)

	for k := 0; k < warmupPerImage; k++ {
		for i, name := range srv.names {
			o, err := srv.submit(c, i)
			r.outcome(checkOutcome(name, want[name], o, err))
		}
	}
	if r.opts.check {
		return nil
	}
	conns := runtime.NumCPU()
	rng := rand.New(rand.NewSource(r.opts.seed))

	// Saturation phase: closed loop, one client per connection. An
	// untraced run adds segments past the window until it has minSamples
	// responses, so latency_ms_tail can be the p99.
	var lat []float64
	completed := 0
	loop := func(window time.Duration) []float64 {
		type result struct {
			start, end time.Duration
			img        int
			o          *service.JobOutcome
			err        error
		}
		seeds := make([]int64, conns)
		for w := range seeds {
			seeds[w] = rng.Int63()
		}
		per := make([][]result, conns)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				crng := rand.New(rand.NewSource(seeds[w]))
				for time.Since(start) < window {
					img := crng.Intn(len(srv.ids))
					t0 := time.Now()
					o, err := srv.submit(c, img)
					t1 := time.Now()
					r.tr.record("POST /v1/jobs", srv.names[img], -1, -1, t0, t1)
					per[w] = append(per[w], result{t0.Sub(start), t1.Sub(start), img, o, err})
				}
			}(w)
		}
		wg.Wait()
		var done []interval
		for _, rs := range per {
			for _, q := range rs {
				name := srv.names[q.img]
				err := checkOutcome(name, want[name], q.o, q.err)
				r.outcome(err)
				if err == nil {
					completed++
					done = append(done, interval{q.start, q.end})
					lat = append(lat, ms(q.end-q.start))
				}
			}
		}
		return binRates(done, window)
	}
	sec, err := timed(r, timedLoop{loop: loop, samples: func() int { return len(lat) }, need: minSamples, between: su.between})
	if err != nil {
		return err
	}
	su.record()
	r.set("jobs_per_s", median(sec.rates), len(sec.rates),
		fmt.Sprintf("saturation: median 1 s bin of completed jobs, %d closed-loop clients", conns))
	if !r.opts.trace {
		return latencyFigures(r, lat, 99, fmt.Sprintf("saturation response time, %d closed-loop clients", conns))
	}
	memDelta(r, sec, completed)
	if err := openLoopFigures(r, srv, c, rng, want); err != nil {
		return err
	}
	if err := serviceFigures(r, c, srv.http.URL); err != nil {
		return err
	}
	return layerProbes(r, progs, refs, want, serviceQuantum)
}

// openLoopFigures runs the nominal phase, minSamples requests in an open
// loop at the frozen nominalRate, and records their latency from each
// request's due time, how it splits into connection wait and response,
// and how late the generator ran.
func openLoopFigures(r *run, srv *server, c *http.Client, rng *rand.Rand, want map[string]ref) error {
	at, imgs := arrivals(rng, minSamples, nominalRate, len(srv.ids))
	outcomes := make([]*service.JobOutcome, len(at))
	reqs := openLoop(at, runtime.NumCPU(), func(i int) error {
		var err error
		outcomes[i], err = srv.submit(c, imgs[i])
		return err
	})
	var lat, wait, resp []float64
	var lag float64
	for i, q := range reqs {
		name := srv.names[imgs[i]]
		r.outcome(checkOutcome(name, want[name], outcomes[i], q.err))
		root := r.tr.record("request", name, -1, i, q.due, q.done)
		r.tr.record("client.wait", name, root, i, q.due, q.sent)
		r.tr.record("POST /v1/jobs", name, root, i, q.sent, q.done)
		lat = append(lat, ms(q.done.Sub(q.due)))
		wait = append(wait, ms(q.sent.Sub(q.due)))
		resp = append(resp, ms(q.done.Sub(q.sent)))
		lag = max(lag, ms(q.fired.Sub(q.due)))
	}
	for _, f := range []struct {
		name string
		xs   []float64
		p    float64
	}{
		{"service.latency_ms_p50", lat, 50}, {"service.latency_ms_p99", lat, 99},
		{"service.wait_ms_p50", wait, 50}, {"service.wait_ms_p99", wait, 99},
		{"service.response_ms_p50", resp, 50}, {"service.response_ms_p99", resp, 99},
	} {
		v, err := percentile(sorted(f.xs), f.p)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		r.set(f.name, v, len(f.xs), fmt.Sprintf("open loop at %g/s, from due time", nominalRate))
	}
	f := r.figs["service.latency_ms_p99"]
	verdict := "met"
	if f.Value > latencyLimitMS {
		verdict = "MISSED"
	}
	f.Note += fmt.Sprintf("; limit p99 <= %d ms %s", latencyLimitMS, verdict)
	r.figs["service.latency_ms_p99"] = f
	r.set("generator.lag_ms_max", lag, len(reqs), "latest release behind schedule")
	return nil
}

// interval is one request's time in flight, as offsets from a phase start.
type interval struct{ start, end time.Duration }

// binRates splits window into one-second bins and returns each bin's rate
// of completed requests. A request counts as one job spread over the bins
// its time in flight overlaps, in proportion to the overlap, so the rates
// are not quantized to whole jobs per bin and a request still in flight
// when the window closes counts only for its part inside it.
func binRates(done []interval, window time.Duration) []float64 {
	bins := max(1, int(window/time.Second))
	width := window / time.Duration(bins)
	jobs := make([]float64, bins)
	for _, q := range done {
		d := q.end - q.start
		for b := max(0, int(q.start/width)); b < bins && time.Duration(b)*width < q.end; b++ {
			lo, hi := max(q.start, time.Duration(b)*width), min(q.end, time.Duration(b+1)*width)
			if hi > lo {
				jobs[b] += float64(hi-lo) / float64(d)
			}
		}
	}
	for b := range jobs {
		jobs[b] /= width.Seconds()
	}
	return jobs
}

// serviceFigures scrapes GET /metrics and records the pool, dispatcher
// and journal counters of the whole run.
func serviceFigures(r *run, c *http.Client, url string) error {
	id := r.tr.begin("GET /metrics", "", -1, -1)
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		r.tr.end(id)
		return fmt.Errorf("scrape metrics: %w", err)
	}
	m, err := scrape(resp.Body)
	resp.Body.Close()
	r.tr.end(id)
	if err != nil {
		return err
	}
	hits, misses := m["fpvmd_pool_hits_total"], m["fpvmd_pool_misses_total"]
	rate := 0.0
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	const note = "GET /metrics at end of run"
	r.set("service.pool_hit_rate", rate, int(hits+misses), note)
	r.set("service.pool_lookups", hits+misses, 1, "pool hits + misses, the base of service.pool_hit_rate")
	r.set("service.affinity_dispatches", m["fpvmd_affinity_dispatch_total"], 1, note)
	r.set("service.persist_failures", m["fpvmd_persist_failures_total"], 1, note)
	for _, st := range serviceStatuses {
		r.set("service.jobs."+st, m["fpvmd_jobs_total/"+st], 1, note)
	}
	return nil
}

// serviceStatuses are the terminal job statuses reported per layer.
var serviceStatuses = []string{
	string(service.StatusCompleted), string(service.StatusDegraded), string(service.StatusFailed),
	string(service.StatusShed), string(service.StatusDeadline),
}

// scrape parses fpvmd's Prometheus text into unlabelled series values;
// fpvmd_jobs_total is summed over tenants per status, keyed
// "fpvmd_jobs_total/<status>".
func scrape(body io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		if name, labels, ok := strings.Cut(key, "{"); ok {
			if name != "fpvmd_jobs_total" {
				continue
			}
			_, rest, _ := strings.Cut(labels, `status="`)
			status, _, _ := strings.Cut(rest, `"`)
			key = name + "/" + status
			out[key] += v
			continue
		}
		out[key] = v
	}
	return out, sc.Err()
}
