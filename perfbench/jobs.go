package main

// The jobs-mix workload: the emmcd job service in process, on a loopback
// listener, driven by one closed-loop client that waits for each job to
// finish before sending the next. Jobs are short single-scheme replays of
// a seed-shuffled sequence of small apps; one job in every forkEvery forks
// a device aged once at set-up (from_device).
//
// emmcc keeps two jobs in flight per worker, but on a 2-vCPU host two jobs
// plus their clients and the GC need more than the two cores, so a job's
// latency then measures how the host schedules it: in two sets of ten runs
// with two clients, the fork p90 spread by up to 47% and the job rate by
// up to 30%. With one job in flight a job's latency is its own cost.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/core"
	"emmcio/internal/devstore"
	"emmcio/internal/server"
	"emmcio/internal/storage"
	"emmcio/internal/workload"
)

const (
	// jobPoll is how long the client sleeps before each status GET. It is a
	// measurement choice, not a model of a client: emmcc polls every 200 ms,
	// which would round a ~15 ms job up to 200 ms and make the closed loop
	// measure the poll period instead of the server. The traced run reports
	// what the polls cost (server.polls_per_job, server.poll_cpu_frac).
	jobPoll = time.Millisecond
	// forkEvery sets the fork share: one job in every forkEvery is a fork.
	// No client has a known fresh/fork mix to copy (an emmcc sweep is all
	// one kind). A fork costs ~6x a fresh job, so with one in four the
	// fresh jobs still take about a third of the server's job time, and a
	// 25-second run gives ~160 forks for a steady median.
	forkEvery    = 4
	agedSessions = 2 // Twitter sessions the forked device is aged with
	probeCalls   = 8 // calls per probed layer in a traced run
)

// jobApps are the short apps the jobs replay.
var jobApps = []string{"CallIn", "CallOut", "YouTube", "Email", "Amazon"}

// jobsEnv is one set-up: a device store, the server on a loopback
// listener, and the device aged through POST /v1/devices.
type jobsEnv struct {
	store    *devstore.Store
	srv      *server.Server
	hs       *http.Server
	served   chan error
	base     string
	deviceID string
}

func startJobsEnv(dir string, wseed uint64) (*jobsEnv, error) {
	store, err := devstore.Open(dir, devstore.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &jobsEnv{
		store:  store,
		srv:    server.New(server.Config{Workers: 2, JobWorkers: 1, JobTraceCap: -1, DeviceStore: store}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() { e.served <- e.hs.Serve(ln) }()

	c := newJobClient(e.base)
	defer c.close()
	age, _ := json.Marshal(map[string]any{"app": "Twitter", "scheme": "HPS", "sessions": agedSessions, "seed": wseed, "label": "perfbench-aged"})
	rec := c.run("/v1/devices", age, nil)
	if rec.err != nil {
		return e, fmt.Errorf("aging the fork device: %w", rec.err)
	}
	var dev server.DeviceStatus
	if err := json.Unmarshal(rec.result, &dev); err != nil {
		return e, fmt.Errorf("decoding the aged device: %w", err)
	}
	e.deviceID = dev.ID
	return e, nil
}

// close stops the listener and the server's workers and waits for both.
func (e *jobsEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, e.srv.Shutdown(ctx))
}

// jobClient is a client with its own connection.
type jobClient struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newJobClient(base string) *jobClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &jobClient{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *jobClient) close() { c.tr.CloseIdleConnections() }

func (c *jobClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	id   string
	app  string
	fork bool

	latency     time.Duration // POST sent until the job is seen terminal
	latencyCPU  time.Duration // process CPU time over the same span
	post        time.Duration
	lastGet     time.Duration // the GET that saw the terminal state
	queueWait   time.Duration // from the job's created/started stamps
	runTime     time.Duration // from the job's started/finished stamps
	polls       int
	resultBytes int    // body of the terminal GET
	result      []byte // the job's compacted result JSON
	err         error
}

// run submits one job to path and polls it until it is terminal. Spans go
// to spans (nil when untraced) under request id seq.
func (c *jobClient) run(path string, body []byte, spans *spanLog) jobRecord {
	var rec jobRecord
	startCPU, start := cpuNow(), time.Now()
	code, resp, err := c.do(http.MethodPost, path, body)
	rec.post = time.Since(start)
	seq := start.UnixNano()
	spans.add("server", "post", seq, "job", start, rec.post)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST %s: %d %s", path, code, resp)
	}
	var sub struct{ ID string }
	if err == nil {
		err = json.Unmarshal(resp, &sub)
	}
	rec.id = sub.ID
	for err == nil {
		time.Sleep(jobPoll)
		getStart := time.Now()
		code, resp, err = c.do(http.MethodGet, "/v1/jobs/"+sub.ID, nil)
		rec.lastGet = time.Since(getStart)
		rec.polls++
		spans.add("server", "get", seq, "job", getStart, rec.lastGet)
		if err != nil {
			break
		}
		if code != http.StatusOK {
			err = fmt.Errorf("GET job %s: %d %s", sub.ID, code, resp)
			break
		}
		var st server.JobStatus
		if err = json.Unmarshal(resp, &st); err != nil {
			break
		}
		if st.State == server.JobQueued || st.State == server.JobRunning {
			continue
		}
		rec.latency, rec.latencyCPU = time.Since(start), cpuNow()-startCPU
		rec.resultBytes = len(resp)
		if st.State != server.JobDone {
			err = fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
			break
		}
		created, _ := time.Parse(time.RFC3339Nano, st.Created)
		started, _ := time.Parse(time.RFC3339Nano, st.Started)
		finished, _ := time.Parse(time.RFC3339Nano, st.Finished)
		rec.queueWait, rec.runTime = started.Sub(created), finished.Sub(started)
		spans.add("server", "queue_wait", seq, "job", created, rec.queueWait)
		spans.add("server", "run", seq, "job", started, rec.runTime)
		var compact bytes.Buffer
		if err = json.Compact(&compact, st.Result); err == nil {
			rec.result = compact.Bytes()
		}
		break
	}
	rec.err = err
	return rec
}

// mixSequence is the client's job sequence: blocks of forkEvery jobs per app,
// in which every app is forked once and run fresh forkEvery-1 times, each
// block in a seed-shuffled order. Every run thus replays the same mix of
// work, whatever the seed; the seed changes only its order. (Apps drawn
// independently per job made the mix, and with it the job rate, differ by
// several percent from seed to seed.)
type mixSequence struct {
	rng   *rand.Rand
	block []mixJob
	i     int
}

type mixJob struct {
	app  string
	fork bool
}

func newMixSequence(wseed uint64) *mixSequence {
	return &mixSequence{rng: rand.New(rand.NewPCG(wseed, 0))}
}

func (m *mixSequence) next() (app string, fork bool) {
	if m.i == len(m.block) {
		m.block, m.i = m.block[:0], 0
		for _, app := range jobApps {
			for k := 0; k < forkEvery; k++ {
				m.block = append(m.block, mixJob{app, k == 0})
			}
		}
		m.rng.Shuffle(len(m.block), func(a, b int) { m.block[a], m.block[b] = m.block[b], m.block[a] })
	}
	j := m.block[m.i]
	m.i++
	return j.app, j.fork
}

// jobSpec is the POST /v1/replays body of one job.
func jobSpec(app string, fork bool, wseed uint64, deviceID string) cliutil.ReplaySpec {
	spec := cliutil.ReplaySpec{App: app, Scheme: "HPS", Seed: wseed}
	if fork {
		spec.FromDevice = deviceID
	}
	return spec
}

// jobRound is about how long one round of a phase lasts; a phase is split
// into rounds of equal length. The phase's rates are medians over rounds,
// so one round that other load on the host slowed does not move them.
const jobRound = 2 * time.Second

// jobPhase is what one closed-loop phase measured.
type jobPhase struct {
	jobs []jobRecord
	// Per round: completed jobs and the requests they replayed, each per
	// second of the round's CPU time.
	jobRates, reqRates []float64
	rawWall            time.Duration // without the calibrations
	served             int64         // requests replayed by completed jobs
	allocBytes, gcRuns uint64
	peakHeapMB         float64 // mean over rounds of each round's peak live heap
}

func (p *jobPhase) rps() float64 { return median(p.reqRates) }

// runJobPhase runs the closed-loop client in rounds for d and collects
// every job.
func runJobPhase(e *jobsEnv, wseed uint64, d time.Duration, appReqs map[string]int64, spans *spanLog) *jobPhase {
	ph := &jobPhase{}
	c := newJobClient(e.base)
	defer c.close()
	seq := newMixSequence(wseed)
	var peaks []float64
	rounds := max(1, int(d/jobRound))
	alloc0, gc0 := heapCounters()
	for i := 0; i < rounds; i++ {
		heap := startHeapSampler()
		roundCPU, roundStart := cpuNow(), time.Now()
		round := runRound(e, wseed, c, seq, d/time.Duration(rounds), spans)
		cpu, wall := cpuNow()-roundCPU, time.Since(roundStart)
		peaks = append(peaks, heap.stop())
		calibrate(3)
		var done, served int64
		for _, j := range round {
			if j.err == nil {
				done++
				served += appReqs[j.app]
			}
		}
		ph.jobRates = append(ph.jobRates, float64(done)/cpu.Seconds())
		ph.reqRates = append(ph.reqRates, float64(served)/cpu.Seconds())
		ph.jobs = append(ph.jobs, round...)
		ph.served += served
		ph.rawWall += wall
	}
	alloc1, gc1 := heapCounters()
	ph.allocBytes, ph.gcRuns = alloc1-alloc0, gc1-gc0
	ph.peakHeapMB = mean(peaks)
	return ph
}

// runRound runs the client's jobs until d has passed and the current job
// ends.
func runRound(e *jobsEnv, wseed uint64, c *jobClient, seq *mixSequence, d time.Duration, spans *spanLog) []jobRecord {
	var jobs []jobRecord
	for start := time.Now(); time.Since(start) < d; {
		app, fork := seq.next()
		body, _ := json.Marshal(jobSpec(app, fork, wseed, e.deviceID))
		rec := c.run("/v1/replays", body, spans)
		rec.app, rec.fork = app, fork
		jobs = append(jobs, rec)
	}
	return jobs
}

func runJobsMix(r *run) error {
	wseed := inputSeed(r.seed, "jobs-mix")
	reg := workload.DefaultRegistry()
	appReqs := map[string]int64{}
	for _, app := range jobApps {
		appReqs[app] = int64(len(reg.Lookup(app).Generate(wseed).Reqs))
	}

	var env *jobsEnv
	defer func() {
		if env != nil {
			if err := env.close(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: stopping the server: %v\n", err)
			}
		}
	}()
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
		}
		start := cpuNow()
		var err error
		env, err = startJobsEnv(filepath.Join(r.workdir, fmt.Sprintf("setup-%d", i)), wseed)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, (cpuNow() - start).Seconds())
		calibrate(3)
		if i > 0 {
			r.check(env.deviceID == r.info["device"], "set-up %d aged device %s, set-up 0 aged %v", i, env.deviceID, r.info["device"])
		} else {
			r.info["device"] = env.deviceID
		}
	}
	r.set("setup_s", median(secs))

	var phases []*jobPhase
	if r.traced {
		phases = append(phases, runJobPhase(env, wseed, r.seconds/2, appReqs, nil))
		phases = append(phases, runJobPhase(env, wseed, r.seconds/2, appReqs, r.spans))
	} else {
		phases = append(phases, runJobPhase(env, wseed, r.seconds, appReqs, nil))
	}

	refs, err := jobReferences(env, wseed)
	if err != nil {
		return err
	}
	r.info["sim_digest"] = digest([]any{env.deviceID, refs})
	for _, ph := range phases {
		for _, j := range ph.jobs {
			r.attempted++
			want := refs[refKey(j.app, j.fork)]
			ok := r.check(j.err == nil, "%s job (fork %v) failed: %v", j.app, j.fork, j.err) &&
				r.check(bytes.Equal(j.result, want), "%s job (fork %v) result differs from the in-process replay:\n got %s\nwant %s", j.app, j.fork, j.result, want)
			if !ok {
				r.failed++
			}
		}
	}

	last := phases[len(phases)-1]
	fresh, forks := splitJobs(last.jobs)
	if !r.traced {
		r.set("replay_rps", last.rps())
		r.set("job_p50_ms", quantile(cpuLatencies(fresh), 0.5))
		r.set("fork_p50_ms", quantile(cpuLatencies(forks), 0.5))
		r.set("jobs_per_s", median(last.jobRates))
		r.info["job_p90_ms"] = quantile(cpuLatencies(fresh), 0.9)
		r.info["fork_p90_ms"] = quantile(cpuLatencies(forks), 0.9)
		r.info["wall_job_p50_ms"] = quantile(wallLatencies(fresh), 0.5)
		r.info["wall_fork_p50_ms"] = quantile(wallLatencies(forks), 0.5)
		r.set("peak_heap_mb", last.peakHeapMB)
		r.info["samples"] = map[string]int{"job": len(fresh), "fork": len(forks)}
		return nil
	}
	r.info["samples"] = map[string]int{"job": len(fresh), "fork": len(forks)}
	plain := phases[0]
	all := append(append([]jobRecord(nil), fresh...), forks...)
	values := func(jobs []jobRecord, f func(jobRecord) float64) []float64 {
		xs := make([]float64, len(jobs))
		for i, j := range jobs {
			xs[i] = f(j)
		}
		return xs
	}
	field := func(jobs []jobRecord, f func(jobRecord) float64) float64 { return median(values(jobs, f)) }
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	r.set("server.post_ms", field(all, func(j jobRecord) float64 { return ms(j.post) }))
	r.set("server.queue_wait_ms", field(all, func(j jobRecord) float64 { return ms(j.queueWait) }))
	r.set("server.run_ms", field(fresh, func(j jobRecord) float64 { return ms(j.runTime) }))
	r.set("server.fork_run_ms", field(forks, func(j jobRecord) float64 { return ms(j.runTime) }))
	r.set("server.result_get_ms", field(all, func(j jobRecord) float64 { return ms(j.lastGet) }))
	r.set("server.result_bytes", field(all, func(j jobRecord) float64 { return float64(j.resultBytes) }))
	r.set("server.polls_per_job", mean(values(all, func(j jobRecord) float64 { return float64(j.polls) })))
	r.set("runtime.alloc_bytes_per_req", float64(plain.allocBytes)/float64(plain.served))
	r.set("runtime.gc_cycles", float64(plain.gcRuns)*1e6/float64(plain.served))
	r.set("bench.job_samples", float64(len(fresh)))
	r.set("bench.fork_samples", float64(len(forks)))
	r.set("bench.trace_overhead_rps", plain.rps()-last.rps())
	return probeJobLayers(r, env, wseed, last)
}

// probeJobLayers times, with the server idle, the calls a job makes inside
// the server, on the same inputs: core.NewDevice for a fresh job, and
// devstore.OpenDevice, core.RestoreSealed and storage.Seal for a fork. It
// also times a status GET on the idle server, to price the traced phase ph's
// polls: server.poll_cpu_frac is the share of one CPU they took, client and
// server side together.
func probeJobLayers(r *run, env *jobsEnv, wseed uint64, ph *jobPhase) error {
	c := newJobClient(env.base)
	defer c.close()
	var polls int
	var getMs []float64
	for _, j := range ph.jobs {
		polls += j.polls
	}
	id := ph.jobs[len(ph.jobs)-1].id // still retained; the oldest jobs are not
	for i := 0; i < probeCalls; i++ {
		start := time.Now()
		code, body, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET job %s: %d %s", id, code, body)
		}
		if err != nil {
			return err
		}
		getMs = append(getMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	r.set("server.poll_cpu_frac", float64(polls)/ph.rawWall.Seconds()*median(getMs)/1e3)

	spec := jobSpec(jobApps[0], false, wseed, "")
	spec.Normalize()
	opt, err := spec.DeviceOptions()
	if err != nil {
		return err
	}
	var newDev, open, restore, seal probeSet
	var sealed []byte
	for i := 0; i < probeCalls; i++ {
		id := int64(i)
		m, err := probe(func() error { _, err := core.NewDevice(core.SchemeHPS, opt); return err })
		if err != nil {
			return err
		}
		newDev.add(m)
		r.spans.add("core", "new_device", id, "probe", time.Now().Add(-m.dur), m.dur)
		m, err = probe(func() error { sealed, err = env.store.OpenDevice(env.deviceID); return err })
		if err != nil {
			return err
		}
		open.add(m)
		r.spans.add("devstore", "open_device", id, "probe", time.Now().Add(-m.dur), m.dur)
		var dev storage.Device
		m, err = probe(func() error { dev, _, err = core.RestoreSealed(env.deviceID, bytes.NewReader(sealed)); return err })
		if err != nil {
			return err
		}
		restore.add(m)
		r.spans.add("core", "restore_sealed", id, "probe", time.Now().Add(-m.dur), m.dur)
		m, err = probe(func() error { sealed, _, err = storage.Seal(dev); return err })
		if err != nil {
			return err
		}
		seal.add(m)
		r.spans.add("storage", "seal", id, "probe", time.Now().Add(-m.dur), m.dur)
	}
	r.set("core.new_device_ms", newDev.medianMs())
	r.set("core.new_device_alloc_mb", newDev.allocMB())
	r.set("core.new_device_allocs", newDev.allocsPer())
	r.set("devstore.open_device_ms", open.medianMs())
	r.set("core.restore_sealed_ms", restore.medianMs())
	r.set("core.restore_alloc_mb", restore.allocMB())
	r.set("storage.seal_ms", seal.medianMs())
	r.set("storage.seal_bytes", float64(len(sealed)))
	return nil
}

func refKey(app string, fork bool) string { return fmt.Sprintf("%s/fork=%v", app, fork) }

// jobReferences replays every (app, kind) of the mix in process through
// cliutil.ReplaySpec.Replay, the function the server's jobs run, and
// returns the result JSON a job of that kind must answer byte for byte.
func jobReferences(e *jobsEnv, wseed uint64) (map[string][]byte, error) {
	refs := map[string][]byte{}
	for _, app := range jobApps {
		for _, fork := range []bool{false, true} {
			spec := jobSpec(app, fork, wseed, e.deviceID)
			spec.SetDeviceSource(e.store)
			if err := spec.Validate(nil); err != nil {
				return nil, err
			}
			m, err := spec.Replay(context.Background(), core.SchemeHPS, nil, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("reference replay of %s: %w", refKey(app, fork), err)
			}
			b, err := json.Marshal([]cliutil.SchemeResult{{Scheme: core.SchemeHPS.String(), Metrics: m}})
			if err != nil {
				return nil, err
			}
			refs[refKey(app, fork)] = b
		}
	}
	return refs, nil
}

func splitJobs(jobs []jobRecord) (fresh, forks []jobRecord) {
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if j.fork {
			forks = append(forks, j)
		} else {
			fresh = append(fresh, j)
		}
	}
	return fresh, forks
}

func cpuLatencies(jobs []jobRecord) []float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = millis(j.latencyCPU)
	}
	return xs
}

func wallLatencies(jobs []jobRecord) []float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = millis(j.latency)
	}
	return xs
}
