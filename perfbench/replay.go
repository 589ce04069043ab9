package main

// The two streaming-replay workloads. Set-up leaves aged (aged-replay) or
// pre-written (read-ufs) devices sealed in a devstore. The measured phase
// is a run of windows: each forks a sealed device the way a from_device job
// does (devstore.OpenDevice, then core.RestoreSealed) and replays one fixed
// window of requests on the fork through core's replay loop. Every window of
// an input does the same simulated work, so its metrics must equal that
// input's first window's, and the simulated counts repeat exactly from run
// to run.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"emmcio/internal/cliutil"
	"emmcio/internal/core"
	"emmcio/internal/devstore"
	"emmcio/internal/ftl"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
	"emmcio/internal/workload"
)

const (
	// setupRepeats is how many times a run builds its set-up; setup_s is
	// the median and every repeat must seal the identical device.
	setupRepeats = 5

	// Each workload draws several inputs from the seed (agedInputs,
	// readInputs) and runs their windows in turn: one input's cost varies
	// by ~10% from seed to seed, and the medians must not. aged-replay
	// ages one device per input, because the inputs' write footprints do
	// not fit on one 1/64-size device together.
	//
	// aged-replay: Twitter on a 1/64-size HPS eMMC, warmed up with
	// agedWarm sessions. GC reaches its steady state within the first 4
	// sessions: from then on the write amplification of each pair of
	// sessions stays in a fixed band (~1.35-1.6) that it cycles through
	// with a period of a few pairs and never leaves. A fixed count past
	// that point keeps set-up work the same for every seed; a test for
	// consecutive pairs agreeing would stop anywhere from 8 to 40 sessions
	// on those cycles.
	agedShrink     = 64
	agedInputs     = 4
	agedWarm       = 8
	agedWindowSess = 6

	// read-ufs: Movie on a 1/8-size UFS device, replayed from BIOZ files.
	readShrink     = 8
	readInputs     = 4
	readWindowSess = 24

	// sessionGap separates back-to-back sessions, as emmcsim -sessions does.
	sessionGap = 1_000_000_000
)

// replayBench is a finished set-up: the sealed devices and the windows the
// measured phase replays on forks of them.
type replayBench struct {
	deviceLayer string // span layer of the backend: "emmc" or "ufs"
	sourceLayer string // span layer of the request source: "workload" or "trace"
	store       *devstore.Store
	// windows are the inputs' windows; the measured phase runs them in
	// turn, so its medians average over every input.
	windows []window
	info    map[string]any
}

// window is one fixed window of requests on a fork of a sealed device.
type window struct {
	id        string // the sealed post-set-up device the window forks
	sealBytes int
	reqs      int64
	bytes     int64 // encoded trace bytes the window decodes (0 for a generator)
	// open returns the window's request stream, starting an idle gap after
	// the fork's last activity, and a function that releases it.
	open func(lastActivity int64) (trace.Stream, func(), error)
}

// ids lists the sealed devices, one per window.
func (b *replayBench) ids() []string {
	var ids []string
	for _, w := range b.windows {
		ids = append(ids, w.id)
	}
	return ids
}

// setupProbes collects the calls every set-up makes, across repeats.
type setupProbes struct {
	newDevice, seal probeSet
}

// newDevice builds a device through core.NewDevice under a probe.
func newDevice(sp *setupProbes, opt core.Options) (storage.Device, error) {
	var dev storage.Device
	m, err := probe(func() error {
		var err error
		dev, err = core.NewDevice(core.SchemeHPS, opt)
		return err
	})
	sp.newDevice.add(m)
	return dev, err
}

// sealInto seals dev with storage.Seal under a probe and archives it.
func sealInto(sp *setupProbes, store *devstore.Store, dev storage.Device) (string, int, error) {
	var sealed []byte
	m, err := probe(func() error {
		var err error
		sealed, _, err = storage.Seal(dev)
		return err
	})
	sp.seal.add(m)
	if err != nil {
		return "", 0, err
	}
	meta, err := store.Put(sealed, devstore.Meta{Scheme: core.SchemeHPS.String(), Origin: "aged"})
	return meta.ID, len(sealed), err
}

// runSetups builds the set-up setupRepeats times, reports the median CPU
// time as setup_s and returns the last set-up. Each repeat gets its own store
// directory, and all must archive the same device.
func runSetups(r *run, build func(dir string, sp *setupProbes) (*replayBench, error)) (*replayBench, *setupProbes, error) {
	sp := &setupProbes{}
	var secs []float64
	var b *replayBench
	for i := 0; i < setupRepeats; i++ {
		start := cpuNow()
		nb, err := build(filepath.Join(r.workdir, fmt.Sprintf("setup-%d", i)), sp)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, (cpuNow() - start).Seconds())
		calibrate(3)
		if b != nil {
			r.check(reflect.DeepEqual(nb.ids(), b.ids()), "set-up %d sealed devices %v, set-up 0 sealed %v", i, nb.ids(), b.ids())
		}
		b = nb
	}
	r.set("setup_s", median(secs))
	return b, sp, nil
}

func runAgedReplay(r *run) error {
	b, sp, err := runSetups(r, func(dir string, sp *setupProbes) (*replayBench, error) {
		return agedSetup(r.seed, dir, sp)
	})
	if err != nil {
		return err
	}
	return measureReplay(r, b, sp)
}

// agedSetup builds the aged-replay devices, one per input: Twitter
// sessions at the input's seed on a fresh 1/64-size HPS eMMC (emmcsim -app
// Twitter -scheme HPS -shrink 64), agedWarm of them, which is past the point
// where GC is steady. Each session resumes an idle gap after the device's
// last activity, as a from_device job does.
func agedSetup(seed uint64, dir string, sp *setupProbes) (*replayBench, error) {
	store, err := devstore.Open(dir, devstore.Options{})
	if err != nil {
		return nil, err
	}
	spec := cliutil.ReplaySpec{App: "Twitter", Scheme: "HPS", Shrink: agedShrink}
	spec.Normalize()
	opt, err := spec.DeviceOptions()
	if err != nil {
		return nil, err
	}
	p, err := spec.Profile(workload.DefaultRegistry())
	if err != nil {
		return nil, err
	}
	b := &replayBench{deviceLayer: "emmc", sourceLayer: "workload", store: store}
	var warmWA []float64
	for k := 0; k < agedInputs; k++ {
		ws := spec
		ws.Seed, ws.Sessions = inputSeed(seed, fmt.Sprintf("aged-replay/%d", k)), agedWindowSess
		dev, err := newDevice(sp, opt)
		if err != nil {
			return nil, err
		}
		var before ftl.Stats
		for i := 0; i < agedWarm; i++ {
			if i == agedWarm-2 {
				before = dev.FTLStats()
			}
			st := trace.ShiftStream(trace.ClearStream(p.Stream(ws.Seed)), dev.LastActivity()+sessionGap)
			if _, err := core.ReplayStreamOn(dev, core.SchemeHPS, st); err != nil {
				return nil, fmt.Errorf("input %d warm-up session %d: %w", k, i, err)
			}
		}
		last := ftlDelta(dev.FTLStats(), before)
		warmWA = append(warmWA, 1+float64(last.GC.PageMoves)/float64(max(1, last.HostProgrammedPages)))
		id, sealBytes, err := sealInto(sp, store, dev)
		if err != nil {
			return nil, err
		}
		b.windows = append(b.windows, window{
			id:        id,
			sealBytes: sealBytes,
			reqs:      int64(agedWindowSess * len(p.Generate(ws.Seed).Reqs)),
			open: func(last int64) (trace.Stream, func(), error) {
				return trace.ShiftStream(ws.PrepareStream(p.Stream(ws.Seed)), last+sessionGap), func() {}, nil
			},
		})
	}
	b.info = map[string]any{"warm_sessions": agedWarm, "warm_last_pair_wa": warmWA}
	return b, nil
}

func runReadUFS(r *run) error {
	var gen opSums
	b, sp, err := runSetups(r, func(dir string, sp *setupProbes) (*replayBench, error) {
		return readSetup(r.seed, dir, sp, &gen)
	})
	if err != nil {
		return err
	}
	r.set("workload.next_ns", gen.mean())
	return measureReplay(r, b, sp)
}

// movieTrace generates read-ufs input k: Movie at a seed derived from the
// run's, pulled through the workload generator's stream (whose Next calls
// gen times).
func movieTrace(seed uint64, k int, gen *opSums) (*trace.Trace, error) {
	p := workload.DefaultRegistry().Lookup("Movie")
	st := &tracedStream{Stream: p.Stream(inputSeed(seed, fmt.Sprintf("read-ufs/%d", k))), layer: "workload", seq: new(int64)}
	tr, err := trace.Collect(st)
	gen.n += st.sums.n
	gen.ns += st.sums.ns
	return tr, err
}

// prewrites returns one write per read of tr, covering exactly the read's
// pages, so that every page the trace reads is mapped before it is read.
func prewrites(tr *trace.Trace) *trace.Trace {
	out := &trace.Trace{Name: tr.Name + "-prewrite"}
	for _, req := range tr.Reqs {
		if req.Op == trace.Read {
			out.Reqs = append(out.Reqs, trace.Request{Arrival: int64(len(out.Reqs)) * 100_000, LBA: req.LBA, Size: req.Size, Op: trace.Write})
		}
	}
	return out
}

// readSetup builds the read-ufs device and trace files: readInputs Movie
// traces, each encoded to a BIOZ file, and a fresh 1/8-size UFS device on
// which every page any of them reads has been written once.
func readSetup(seed uint64, dir string, sp *setupProbes, gen *opSums) (*replayBench, error) {
	store, err := devstore.Open(dir, devstore.Options{})
	if err != nil {
		return nil, err
	}
	spec := cliutil.ReplaySpec{App: "Movie", Scheme: "HPS", Shrink: readShrink, DeviceSpec: cliutil.DeviceSpec{Device: "ufs"}}
	spec.Normalize()
	opt, err := spec.DeviceOptions()
	if err != nil {
		return nil, err
	}
	dev, err := newDevice(sp, opt)
	if err != nil {
		return nil, err
	}
	b := &replayBench{deviceLayer: "ufs", sourceLayer: "trace", store: store}
	var reqs, reads int
	for k := 0; k < readInputs; k++ {
		tr, err := movieTrace(seed, k, gen)
		if err != nil {
			return nil, err
		}
		reqs += len(tr.Reqs)
		reads += len(tr.Reqs) - tr.WriteCount()
		path := filepath.Join(dir, fmt.Sprintf("movie-%d.bioz", k))
		if err := writeBIOZ(path, tr); err != nil {
			return nil, err
		}
		fileInfo, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		st := trace.ShiftStream(trace.FromSlice(prewrites(tr)), dev.LastActivity()+sessionGap)
		if _, err := core.ReplayStreamOn(dev, core.SchemeHPS, st); err != nil {
			return nil, fmt.Errorf("pre-writing the pages input %d reads: %w", k, err)
		}
		b.windows = append(b.windows, window{
			reqs:  int64(readWindowSess * len(tr.Reqs)),
			bytes: readWindowSess * fileInfo.Size(),
			open: func(last int64) (trace.Stream, func(), error) {
				f, err := os.Open(path)
				if err != nil {
					return nil, nil, err
				}
				dec, err := trace.NewDecoder(f)
				if err != nil {
					f.Close()
					return nil, nil, err
				}
				st := trace.ShiftStream(trace.ClearStream(trace.Repeat(dec, readWindowSess, sessionGap)), last+sessionGap)
				return st, func() { f.Close() }, nil
			},
		})
	}
	id, sealBytes, err := sealInto(sp, store, dev)
	if err != nil {
		return nil, err
	}
	for k := range b.windows {
		b.windows[k].id, b.windows[k].sealBytes = id, sealBytes
	}
	b.info = map[string]any{"read_frac": float64(reads) / float64(reqs)}
	return b, nil
}

func writeBIOZ(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteCompressed(w, tr); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phase is what a run of windows measured.
type phase struct {
	windows int
	reqs    int64
	// Per-window CPU times in ms and rates.
	replayMs, forkMs, windowMs []float64
	rps                        []float64
	replayNs                   int64 // wall clock, as the per-layer spans
	allocBytes, gcRuns         uint64

	// Traced phases only.
	dev           deviceSums
	src           opSums
	decodedBytes  int64
	open, restore probeSet
	flashOps      int64       // host-programmed pages, GC moves and erases
	ftl           []ftl.Stats // simulated FTL work of each input's window
}

// referencePass replays one window of every input, untimed, and keeps its
// metrics in refs: every later window of that input, traced or not, must
// reproduce them. When the replay pulls past the window's last request, it
// collects garbage and reads the live heap: the fork, the stream and
// whatever the replay loop holds are all live then. It returns the largest
// such heap in MB.
func referencePass(r *run, b *replayBench, refs []*core.Metrics) (float64, error) {
	ph := &phase{}
	peak := 0.0
	for k := range b.windows {
		heap := &heapProbe{at: b.windows[k].reqs}
		if _, _, err := runWindow(r, b, &b.windows[k], ph, false, heap, &refs[k]); err != nil {
			return 0, fmt.Errorf("reference window of input %d: %w", k, err)
		}
		peak = max(peak, heap.liveMB)
	}
	return peak, nil
}

// heapProbe passes a stream through; on the call that pulls request number
// at (counting from 0), it first collects garbage and reads the live heap.
type heapProbe struct {
	trace.Stream
	at, pulled int64
	liveMB     float64
}

func (h *heapProbe) Next() (trace.Request, bool, error) {
	if h.pulled == h.at {
		runtime.GC()
		h.liveMB = liveHeapMB()
	}
	h.pulled++
	return h.Stream.Next()
}

// runWindows replays windows on fresh forks, the inputs in turn, until d
// has elapsed and every input ran at least once. Each window must reproduce
// its input's metrics in refs.
func runWindows(r *run, b *replayBench, d time.Duration, traced bool, refs []*core.Metrics) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for ph.windows < len(b.windows) || time.Since(start) < d {
		w := &b.windows[ph.windows%len(b.windows)]
		ref := &refs[ph.windows%len(b.windows)]
		fork, replay, err := runWindow(r, b, w, ph, traced, nil, ref)
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", ph.windows, err)
		}
		calibrate(1)
		ph.replayMs = append(ph.replayMs, millis(replay))
		ph.rps = append(ph.rps, float64(w.reqs)/replay.Seconds())
		ph.forkMs = append(ph.forkMs, millis(fork))
		ph.windowMs = append(ph.windowMs, millis(fork+replay))
	}
	return ph, nil
}

// runWindow forks the set-up device, replays window w on the fork and
// checks the outcome; heap, if not nil, wraps the window's stream. It
// returns the CPU time of the fork and of the replay.
func runWindow(r *run, b *replayBench, w *window, ph *phase, traced bool, heap *heapProbe, ref **core.Metrics) (fork, replay time.Duration, err error) {
	id := int64(ph.windows)
	forkCPU := cpuNow()
	forkStart := time.Now()
	sealed, err := b.store.OpenDevice(w.id)
	if err != nil {
		return 0, 0, err
	}
	opened := time.Now()
	var dev storage.Device
	restore := func() error {
		var err error
		dev, _, err = core.RestoreSealed(w.id, bytes.NewReader(sealed))
		return err
	}
	if traced {
		m, err := probe(restore)
		ph.restore.add(m)
		if err != nil {
			return 0, 0, err
		}
		ph.open.add(memProbe{dur: opened.Sub(forkStart)})
		r.spans.add("devstore", "open_device", id, "window", forkStart, opened.Sub(forkStart))
		r.spans.add("core", "restore_sealed", id, "window", opened, m.dur)
	} else if err := restore(); err != nil {
		return 0, 0, err
	}
	fork = cpuNow() - forkCPU

	ftl0, served0 := dev.FTLStats(), dev.Metrics().Served
	st, release, err := w.open(dev.LastActivity())
	if err != nil {
		return 0, 0, err
	}
	defer release()
	replayDev, replaySt := dev, st
	if heap != nil {
		heap.Stream = st
		replaySt = heap
	}
	var tdev *tracedDevice
	var tst *tracedStream
	if traced {
		seq := new(int64)
		*seq = id << 32
		tdev = &tracedDevice{Device: dev, layer: b.deviceLayer, sums: &deviceSums{}, spans: r.spans, seq: seq}
		tst = &tracedStream{Stream: st, layer: b.sourceLayer, spans: r.spans, seq: seq}
		replayDev, replaySt = tdev, tst
	}
	alloc0, gc0 := heapCounters()
	replayCPU, replayStart := cpuNow(), time.Now()
	m, err := core.ReplayStreamOn(replayDev, core.SchemeHPS, replaySt)
	replay = cpuNow() - replayCPU
	replayWall := time.Since(replayStart)
	alloc1, gc1 := heapCounters()
	if err != nil {
		return 0, 0, err
	}
	r.spans.add("core", "replay", id, "window", replayStart, replayWall)

	ph.windows++
	ph.reqs += w.reqs
	ph.replayNs += int64(replayWall)
	ph.allocBytes += alloc1 - alloc0
	ph.gcRuns += gc1 - gc0
	if traced {
		ph.dev.merge(tdev.sums)
		ph.src.n += tst.sums.n
		ph.src.ns += tst.sums.ns
		ph.decodedBytes += w.bytes
		f := ftlDelta(dev.FTLStats(), ftl0)
		ph.flashOps += f.HostProgrammedPages + int64(f.GC.PageMoves) + int64(f.GC.Erases)
		if len(ph.ftl) < len(b.windows) {
			ph.ftl = append(ph.ftl, f)
		}
	}

	r.attempted += w.reqs
	ok := r.check(int64(m.Served)-served0 == w.reqs, "window %d served %d requests, the window holds %d", id, int64(m.Served)-served0, w.reqs)
	if tst != nil {
		ok = r.check(tst.emitted == w.reqs, "window %d stream emitted %d requests, the window holds %d", id, tst.emitted, w.reqs) && ok
	}
	if *ref == nil {
		*ref = &m
	} else {
		ok = r.check(m == **ref, "window %d (traced %v) metrics differ from its input's first window: %+v vs %+v", id, traced, m, **ref) && ok
	}
	if !ok {
		r.failed += w.reqs
	}
	runtime.KeepAlive(dev)
	return fork, replay, nil
}

func ftlDelta(a, b ftl.Stats) ftl.Stats {
	return ftl.Stats{
		HostProgrammedPages: a.HostProgrammedPages - b.HostProgrammedPages,
		GC: ftl.GCWork{
			PageMoves: a.GC.PageMoves - b.GC.PageMoves,
			Erases:    a.GC.Erases - b.GC.Erases,
		},
	}
}

// measureReplay runs the measured phase of a replay workload: untraced for
// the whole run, or, when traced, an untraced half followed by a traced
// half (their rate difference is the tracing overhead).
func measureReplay(r *run, b *replayBench, sp *setupProbes) error {
	refs := make([]*core.Metrics, len(b.windows))
	for k, v := range b.info {
		r.info[k] = v
	}
	r.info["device"] = b.ids()
	r.info["windows_per_cycle"] = len(b.windows)
	peakHeap, err := referencePass(r, b, refs)
	if err != nil {
		return err
	}
	simDigest := func() string {
		var ms []core.Metrics
		for _, m := range refs {
			ms = append(ms, *m)
		}
		return digest([]any{b.ids(), ms})
	}
	if !r.traced {
		ph, err := runWindows(r, b, r.seconds, false, refs)
		if err != nil {
			return err
		}
		r.set("replay_rps", median(ph.rps))
		r.set("job_p50_ms", quantile(ph.replayMs, 0.5))
		r.set("fork_p50_ms", quantile(ph.forkMs, 0.5))
		r.info["job_p90_ms"] = quantile(ph.replayMs, 0.9)
		r.info["fork_p90_ms"] = quantile(ph.forkMs, 0.9)
		r.set("jobs_per_s", 1e3/median(ph.windowMs))
		r.set("peak_heap_mb", peakHeap)
		r.info["samples"] = map[string]int{"job": ph.windows, "fork": ph.windows}
		r.info["sim_digest"] = simDigest()
		return nil
	}
	plain, err := runWindows(r, b, r.seconds/2, false, refs)
	if err != nil {
		return err
	}
	tr, err := runWindows(r, b, r.seconds/2, true, refs)
	if err != nil {
		return err
	}
	r.info["sim_digest"] = simDigest()
	r.info["samples"] = map[string]int{"untraced_windows": plain.windows, "traced_windows": tr.windows}

	src := tr.src.mean()
	if b.sourceLayer == "trace" {
		r.set("trace.decode_ns", src)
		r.set("trace.decode_mb_s", float64(tr.decodedBytes)/(float64(tr.src.ns)/1e9)/1e6)
	} else {
		r.set("workload.next_ns", src)
	}
	dev := &tr.dev
	total := dev.total()
	r.set("core.loop_self_ns", float64(tr.replayNs-total.ns-tr.src.ns)/float64(tr.reqs))
	r.set(b.deviceLayer+".submit_write_ns", dev.write.mean())
	r.set(b.deviceLayer+".submit_read_ns", dev.read.mean())
	r.set(b.deviceLayer+".submit_p99_ns", dev.hist.quantile(0.99))
	if b.deviceLayer == "emmc" {
		r.set("emmc.gc_submit_ns", dev.gc.mean())
		r.set("emmc.gc_submit_frac", float64(dev.gc.n)/float64(total.n))
	}
	// The FTL counts cover one window of every input: the same simulated
	// work on every run of a seed.
	var f ftl.Stats
	var reqs int64
	for k, d := range tr.ftl {
		f.HostProgrammedPages += d.HostProgrammedPages
		f.GC.PageMoves += d.GC.PageMoves
		f.GC.Erases += d.GC.Erases
		reqs += b.windows[k].reqs
	}
	r.set("ftl.waf", 1+float64(f.GC.PageMoves)/float64(max(1, f.HostProgrammedPages)))
	r.set("ftl.gc_page_moves_per_kreq", float64(f.GC.PageMoves)*1000/float64(reqs))
	r.set("ftl.erases_per_kreq", float64(f.GC.Erases)*1000/float64(reqs))
	r.set("device.host_ns_per_flash_op", float64(total.ns)/float64(max(1, dev.readPages+tr.flashOps)))
	r.set("core.new_device_ms", sp.newDevice.medianMs())
	r.set("core.new_device_alloc_mb", sp.newDevice.allocMB())
	r.set("core.new_device_allocs", sp.newDevice.allocsPer())
	r.set("core.restore_sealed_ms", tr.restore.medianMs())
	r.set("core.restore_alloc_mb", tr.restore.allocMB())
	r.set("storage.seal_ms", sp.seal.medianMs())
	r.set("storage.seal_bytes", float64(b.windows[0].sealBytes))
	r.set("devstore.open_device_ms", tr.open.medianMs())
	r.set("runtime.alloc_bytes_per_req", float64(plain.allocBytes)/float64(plain.reqs))
	r.set("runtime.gc_cycles", float64(plain.gcRuns)*1e6/float64(plain.reqs))
	r.set("bench.job_samples", float64(tr.windows))
	r.set("bench.fork_samples", float64(tr.windows))
	r.set("bench.trace_overhead_rps", median(plain.rps)-median(tr.rps))
	return nil
}
