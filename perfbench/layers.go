package main

// Layer attribution from outside the program: wrappers around the calls the
// benchmark makes into each layer. The program itself is not instrumented,
// so the wrappers must stay transparent (the traced run's simulated
// metrics are checked against the untraced run's).

import (
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// spanLimit bounds how many spans a run keeps in full. Per-layer sums cover
// every call; full spans cover only the first spanLimit, because millions of
// requests would need hundreds of MB of spans.
const spanLimit = 20000

// span is one timed call into a layer. Spans of one request share ID; Parent
// names the span that caused it ("" for a root).
type span struct {
	Layer  string
	Name   string
	ID     int64
	Parent string
	Start  time.Duration // since the run's epoch
	Dur    time.Duration
}

// spanLog keeps the first spanLimit spans in memory and writes them out as
// a Chrome trace when the run ends.
type spanLog struct {
	epoch   time.Time
	spans   []span
	dropped int64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(layer, name string, id int64, parent string, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	if len(l.spans) >= spanLimit {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{Layer: layer, Name: name, ID: id, Parent: parent, Start: start.Sub(l.epoch), Dur: dur})
}

// write saves the kept spans as Chrome trace JSON (load it in Perfetto or
// chrome://tracing): one track per layer, microsecond timestamps, the
// request id and parent span in each event's args.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  string         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X", Pid: 1, Tid: s.Layer,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"otherData":       map[string]any{"kept": len(l.spans), "dropped": l.dropped},
		"displayTimeUnit": "ns",
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// hist is a log-linear latency histogram: 32 linear sub-buckets per power of
// two, so a quantile reads within ~3% of the true value at any scale.
type hist struct {
	counts [64 * 32]int64
	n      int64
}

func histBucket(ns int64) int {
	if ns < 32 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 6 // ns>>exp lands in [32, 64)
	return (exp+1)*32 + int(ns>>exp) - 32
}

func histLower(b int) float64 {
	if b < 32 {
		return float64(b)
	}
	exp := b/32 - 1
	return float64(int64(b%32+32) << exp)
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the lower edge of the bucket holding quantile q.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return histLower(b)
		}
	}
	return histLower(len(h.counts) - 1)
}

// opSums accumulates one kind of timed call.
type opSums struct {
	n  int64
	ns int64
}

func (o *opSums) add(d time.Duration) { o.n++; o.ns += int64(d) }

func (o opSums) mean() float64 {
	if o.n == 0 {
		return 0
	}
	return float64(o.ns) / float64(o.n)
}

// deviceSums are the per-layer totals of a tracedDevice.
type deviceSums struct {
	read, write, gc opSums
	hist            hist
	readPages       int64
}

func (s *deviceSums) merge(o *deviceSums) {
	s.read.n += o.read.n
	s.read.ns += o.read.ns
	s.write.n += o.write.n
	s.write.ns += o.write.ns
	s.gc.n += o.gc.n
	s.gc.ns += o.gc.ns
	s.hist.merge(&o.hist)
	s.readPages += o.readPages
}

func (s *deviceSums) total() opSums {
	return opSums{n: s.read.n + s.write.n, ns: s.read.ns + s.write.ns}
}

// tracedDevice wraps a storage.Device and times every Submit and SubmitAt.
// A submit during which the FTL's GC page-move count advanced is also
// counted as a GC submit. Every other method passes straight through.
type tracedDevice struct {
	storage.Device
	layer string // "emmc" or "ufs"
	sums  *deviceSums
	spans *spanLog
	seq   *int64 // request id shared with the stream wrapper
}

func (d *tracedDevice) Submit(req trace.Request) (storage.Result, error) {
	moves, start := d.Device.FTLStats().GC.PageMoves, time.Now()
	res, err := d.Device.Submit(req)
	d.record(req, moves, start, time.Since(start))
	return res, err
}

func (d *tracedDevice) SubmitAt(dispatchAt int64, req trace.Request) (storage.Result, error) {
	moves, start := d.Device.FTLStats().GC.PageMoves, time.Now()
	res, err := d.Device.SubmitAt(dispatchAt, req)
	d.record(req, moves, start, time.Since(start))
	return res, err
}

func (d *tracedDevice) record(req trace.Request, moves int, start time.Time, dur time.Duration) {
	gc := d.Device.FTLStats().GC.PageMoves != moves
	name := "submit_read"
	if req.Op == trace.Write {
		name = "submit_write"
		d.sums.write.add(dur)
	} else {
		d.sums.read.add(dur)
		d.sums.readPages += int64(req.Pages())
	}
	if gc {
		d.sums.gc.add(dur)
	}
	d.sums.hist.add(int64(dur))
	d.spans.add(d.layer, name, *d.seq, "core.replay", start, dur)
}

// tracedStream wraps a trace.Stream and times every Next; each request it
// emits gets the next id, which the device wrapper tags its span with.
type tracedStream struct {
	trace.Stream
	layer   string // "workload" (generator) or "trace" (file decoder)
	sums    opSums
	emitted int64
	spans   *spanLog
	seq     *int64
}

func (s *tracedStream) Next() (trace.Request, bool, error) {
	start := time.Now()
	req, ok, err := s.Stream.Next()
	dur := time.Since(start)
	s.sums.add(dur)
	if ok {
		s.emitted++
		*s.seq++
	}
	s.spans.add(s.layer, "next", *s.seq, "core.replay", start, dur)
	return req, ok, err
}

// memProbe reports the time and heap allocation of one call. It reads
// exact allocation counters, which stops the world, so callers use it only
// where no other goroutine is allocating.
type memProbe struct {
	dur    time.Duration
	bytes  uint64
	allocs uint64
}

func probe(call func() error) (memProbe, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := call()
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	return memProbe{dur: dur, bytes: after.TotalAlloc - before.TotalAlloc, allocs: after.Mallocs - before.Mallocs}, err
}

// probeSet collects repeated probes of one call.
type probeSet struct {
	durs          []float64 // ms
	bytes, allocs uint64
}

func (p *probeSet) add(m memProbe) {
	p.durs = append(p.durs, float64(m.dur.Nanoseconds())/1e6)
	p.bytes += m.bytes
	p.allocs += m.allocs
}

func (p *probeSet) medianMs() float64 { return median(p.durs) }

func (p *probeSet) allocMB() float64 {
	if len(p.durs) == 0 {
		return 0
	}
	return float64(p.bytes) / float64(len(p.durs)) / (1 << 20)
}

func (p *probeSet) allocsPer() float64 {
	if len(p.durs) == 0 {
		return 0
	}
	return float64(p.allocs) / float64(len(p.durs))
}

// heapSampler tracks the peak live heap of the process: the heap the
// latest GC cycle marked live, read every few milliseconds without stopping
// the world. Live heap, unlike the allocated total, does not depend on where
// between two collections a sample happens to fall.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		var peak float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, liveHeapMB())
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// liveHeapMB is the heap the latest GC cycle marked live, in MB.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapCounters reads the cumulative allocation and GC-cycle counters
// without stopping the world.
func heapCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
