// Package emmc models the eMMC device: a FIFO request interface in front of
// a multi-channel, multi-plane flash array managed by the FTL.
//
// The service model follows the paper's measurement semantics (§II-B):
// a request's service starts when the device is free (requests that find the
// device busy wait — the complement of Table IV's NoWait ratio) and ends when
// its last flash operation completes. Within one request, page operations
// stripe round-robin across planes; transfers serialize per channel and
// flash operations serialize per plane, as in SSDsim.
//
// Two behaviours the paper highlights are modeled explicitly:
//
//   - Low-power mode (Characteristic 4): after a configurable idle period the
//     device drops into light then deep sleep, and the next request pays a
//     wake-up penalty as part of its service time.
//   - Garbage-collection policy (Implication 2): the SSD-style policy runs GC
//     in the foreground when free blocks run low; the idle policy runs it
//     during request inter-arrival gaps, charging the request only for the
//     part that did not fit in the gap.
package emmc

import (
	"encoding/gob"
	"fmt"
	"io"
	"reflect"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/reliability"
	"emmcio/internal/sim"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
)

// GCPolicy selects when garbage collection runs.
type GCPolicy int

const (
	// GCForeground runs GC synchronously when a write finds the pool at the
	// free-block threshold (the SSD-style policy Implication 2 critiques).
	GCForeground GCPolicy = iota
	// GCIdle runs GC during request inter-arrival gaps (Implication 2's
	// proposal); only overflow beyond the gap delays the request.
	GCIdle
)

// Config describes a device instance.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	// Pools lists the per-plane page-size pools, largest page first.
	Pools []flash.PoolSpec
	// GCFreeBlocks is the per-plane-pool free-block threshold.
	GCFreeBlocks int
	GCPolicy     GCPolicy
	// Wear selects the FTL wear-leveling policy (default round-robin,
	// the paper's Implication-4 recommendation).
	Wear ftl.WearPolicy

	// Power management (Characteristic 4). Zero thresholds disable a level.
	PowerSaving     bool
	LightSleepAfter int64 // idle ns before light sleep
	LightWake       int64 // wake penalty from light sleep
	DeepSleepAfter  int64 // idle ns before deep sleep
	DeepWake        int64 // wake penalty from deep sleep

	// RAMBufferBytes enables the device-internal LRU sector cache used for
	// the Implication-3 ablation. Zero (the default, and the §V setup)
	// disables it.
	RAMBufferBytes int64

	// MapCacheBytes bounds the controller RAM holding the DFTL-style cached
	// mapping table. Zero (the default) models unlimited mapping RAM — the
	// idealized FTL of the §V case study. A realistic eMMC value (tens to a
	// few hundred KB) makes mapping misses cost translation-page I/O.
	MapCacheBytes int64

	// Reliability enables the wear-dependent read-retry model: reads slow
	// down as the pool's average P/E count climbs. Nil disables it (fresh
	// devices, the §V setup).
	Reliability *reliability.Model

	// ReadAheadPages prefetches the next N sequential sectors into the RAM
	// buffer after a read, a device-side optimization whose payoff is
	// bounded by the traces' weak spatial locality (Implication 3's other
	// face). Requires RAMBufferBytes > 0; zero disables.
	ReadAheadPages int

	// CommandQueue models an eMMC 5.1-style command queue: requests no
	// longer wait for the whole device to go idle, only for the channels
	// and planes they actually use. eMMC 4.51 (the paper's device) has no
	// CQ — this is the forward-looking ablation for Implication 1.
	CommandQueue bool

	// FlushNs is the cost of a cache-flush barrier (CMD6/SWITCH with the
	// FLUSH_CACHE bit — what fsync turns into below the file system).
	// Zero selects the 500 µs default.
	FlushNs int64

	// WriteBufferBytes enables SSDsim's RAM write-buffer layer, which the
	// paper's §V-B explicitly disables for the case study: writes are
	// acknowledged from RAM and destaged to flash during idle gaps (or
	// synchronously when the buffer fills / a flush barrier arrives).
	WriteBufferBytes int64

	// Faults enables deterministic fault injection (program/erase failures
	// and uncorrectable reads, wear-dependent). Nil or rate-zero models
	// perfect hardware at zero simulated-time overhead.
	Faults *faults.Config

	// SDCard marks the device as the mmc/sdcard flavour: identical
	// mechanics, but the device advertises no packed-command support, so
	// the blockdev driver issues one command per request (the paper's
	// Implication-1 external-card comparison). Timing carries the 3x
	// slowdown; this bit only changes the advertised capabilities.
	SDCard bool
}

// Controller RAM bounds: the buffers are sized from the configuration, so
// the bounds keep a decoded snapshot from sizing them past any real part.
const (
	maxRAMBytes       = 1 << 32
	maxReadAheadPages = 1 << 12
)

// ftlConfig is the translation-layer configuration the device runs.
func (c Config) ftlConfig() ftl.Config {
	return ftl.Config{
		Geometry:     c.Geometry,
		Pools:        c.Pools,
		GCFreeBlocks: c.GCFreeBlocks,
		Wear:         c.Wear,
	}
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if len(c.Pools) == 0 {
		return fmt.Errorf("emmc: no pools")
	}
	for i, p := range c.Pools {
		if err := p.Validate(); err != nil {
			return err
		}
		if _, ok := c.Timing.PerPage[p.PageBytes]; !ok {
			return fmt.Errorf("emmc: no timing for pool page size %d", p.PageBytes)
		}
		if i > 0 && c.Pools[i].PageBytes >= c.Pools[i-1].PageBytes {
			return fmt.Errorf("emmc: pools must be ordered largest page first")
		}
	}
	if c.GCFreeBlocks < 1 {
		return fmt.Errorf("emmc: GC threshold below 1")
	}
	for _, b := range []int64{c.RAMBufferBytes, c.MapCacheBytes, c.WriteBufferBytes} {
		if b < 0 || b > maxRAMBytes {
			return fmt.Errorf("emmc: controller RAM size %d outside [0, %d]", b, int64(maxRAMBytes))
		}
	}
	if c.ReadAheadPages < 0 || c.ReadAheadPages > maxReadAheadPages {
		return fmt.Errorf("emmc: read-ahead of %d pages outside [0, %d]", c.ReadAheadPages, maxReadAheadPages)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Result reports the replayed timing of one request. It is the shared
// storage.Result: the seam's type, so every backend returns the same shape.
type Result = storage.Result

// Metrics aggregates a device's activity over a replay (storage.Metrics —
// the alias keeps the gob snapshot layout and every JSON field identical to
// the pre-seam layout).
type Metrics = storage.Metrics

// Device is one simulated eMMC instance.
type Device struct {
	cfg      Config
	ftl      *ftl.FTL
	channels []sim.Resource
	planes   []sim.Resource
	freeAt   int64
	lastEnd  int64 // completion time of the most recent request
	rrPlane  int
	buffer   *ramBuffer
	mapCache *ftl.MapCache
	writeBuf *writeBuffer
	metrics  Metrics
	// inj is the device's fault injector (shared with the FTL so the
	// decision stream stays one deterministic sequence). Nil when off.
	inj *faults.Injector

	// Cached read-retry factors per pool, refreshed when wear changes.
	relFactor []float64
	relPE     []float64

	// Read-ahead state: the sector run the device expects next.
	lastReadEnd int64
	prefetches  int64
	prefetchHit int64

	// Telemetry is off by default; SetTelemetry attaches handles so the
	// hot paths pay one nil check when disabled.
	tel    *devTel
	tracer *telemetry.Tracer

	// Per-request scratch, reused across submissions (the device is
	// single-goroutine per the storage.Device contract). Contents are only
	// meaningful within one submit call; every consumer that outlives the
	// call (FTL reverse map, write buffer) copies what it keeps.
	lpnBuf      []int64
	chunkBuf    []chunk
	readOps     []readOp
	pendingLPNs []int64
	unitOps     []int
}

// devTel holds the device's metric handles, resolved once at attach time.
type devTel struct {
	reads, writes         *telemetry.Counter
	readServNs            *telemetry.Histogram
	writeServNs           *telemetry.Histogram
	waitNs                *telemetry.Histogram
	sub4K, sub8K          *telemetry.Counter
	flushes               *telemetry.Counter
	lightWakes, deepWakes *telemetry.Counter
	gcStallNs             *telemetry.Counter
	idleGCNs              *telemetry.Counter
	destageIdle           *telemetry.Counter
	destageSpace          *telemetry.Counter
	destageBarrier        *telemetry.Counter
	readFaults            *telemetry.Counter
	recoveryNs            *telemetry.Counter
	recoveryHist          *telemetry.Histogram
	wbBytes               *telemetry.Gauge
	chanBusy              []*telemetry.Gauge
}

// SetTelemetry attaches metrics and span tracing to the device (nil values
// detach). Metrics: emmc_requests_total{op}, emmc_service_ns{op} latency
// histograms, sub-request counters split 4K/8K, flush/wake/GC-stall
// accounting, write-buffer occupancy, and per-channel cumulative busy time.
// Spans: every flash transfer/program/read on its channel and plane track,
// GC and wake markers, and flush barriers. The FTL and mapping cache are
// wired through the same registry.
func (d *Device) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	d.tracer = tr
	d.ftl.SetTelemetry(reg)
	d.mapCache.SetTelemetry(reg)
	d.inj.SetTelemetry(reg)
	if reg == nil {
		d.tel = nil
		return
	}
	t := &devTel{
		reads:          reg.Counter("emmc_requests_total", telemetry.L("op", "read")),
		writes:         reg.Counter("emmc_requests_total", telemetry.L("op", "write")),
		readServNs:     reg.Histogram("emmc_service_ns", nil, telemetry.L("op", "read")),
		writeServNs:    reg.Histogram("emmc_service_ns", nil, telemetry.L("op", "write")),
		waitNs:         reg.Histogram("emmc_wait_ns", nil),
		sub4K:          reg.Counter("emmc_subrequests_total", telemetry.L("page", "4K")),
		sub8K:          reg.Counter("emmc_subrequests_total", telemetry.L("page", "8K")),
		flushes:        reg.Counter("emmc_flushes_total"),
		lightWakes:     reg.Counter("emmc_wakes_total", telemetry.L("level", "light")),
		deepWakes:      reg.Counter("emmc_wakes_total", telemetry.L("level", "deep")),
		gcStallNs:      reg.Counter("emmc_gc_stall_ns_total"),
		idleGCNs:       reg.Counter("emmc_idle_gc_ns_total"),
		destageIdle:    reg.Counter("emmc_destages_total", telemetry.L("cause", "idle")),
		destageSpace:   reg.Counter("emmc_destages_total", telemetry.L("cause", "space")),
		destageBarrier: reg.Counter("emmc_destages_total", telemetry.L("cause", "barrier")),
		readFaults:     reg.Counter("emmc_read_faults_total"),
		recoveryNs:     reg.Counter("emmc_fault_recovery_ns_total"),
		recoveryHist:   reg.Histogram("emmc_fault_recovery_ns", nil),
		wbBytes:        reg.Gauge("emmc_write_buffer_bytes"),
	}
	for i := 0; i < d.cfg.Geometry.Channels; i++ {
		t.chanBusy = append(t.chanBusy,
			reg.Gauge("emmc_channel_busy_ns", telemetry.L("channel", fmt.Sprintf("%d", i))))
	}
	d.tel = t
}

// trackChannel/trackPlane format Perfetto track names; only reached when a
// tracer is attached.
func trackChannel(ch int) string { return fmt.Sprintf("channel/%d", ch) }
func trackPlane(pl int) string   { return fmt.Sprintf("plane/%d", pl) }

// observeSub attributes one flash page operation to its 4K/8K pool.
func (d *Device) observeSub(pageBytes int) {
	if d.tel == nil {
		return
	}
	if pageBytes >= 8192 {
		d.tel.sub8K.Inc()
	} else {
		d.tel.sub4K.Inc()
	}
}

// pageLabel names the pool size in span labels.
func pageLabel(pageBytes int) string {
	if pageBytes >= 8192 {
		return "8K"
	}
	return "4K"
}

// New builds a fresh device.
func New(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := ftl.New(cfg.ftlConfig())
	if err != nil {
		return nil, err
	}
	inj, err := faults.New(cfg.Faults)
	if err != nil {
		return nil, err
	}
	f.SetFaults(inj)
	return &Device{
		cfg:       cfg,
		ftl:       f,
		channels:  make([]sim.Resource, cfg.Geometry.Channels),
		planes:    make([]sim.Resource, cfg.Geometry.Planes()),
		buffer:    newRAMBuffer(cfg.RAMBufferBytes),
		mapCache:  ftl.NewMapCache(cfg.MapCacheBytes),
		writeBuf:  newWriteBuffer(cfg.WriteBufferBytes),
		relFactor: make([]float64, len(cfg.Pools)),
		relPE:     make([]float64, len(cfg.Pools)),
		inj:       inj,
	}, nil
}

// Caps advertises the device's capabilities to the driver layer: packed
// commands unless configured as the sdcard flavour, and a queue depth of 1
// (eMMC 4.51 serializes commands) unless the 5.1-style command queue is on.
func (d *Device) Caps() storage.Caps {
	c := storage.Caps{Backend: storage.BackendEMMC, PackedCommands: true, QueueDepth: 1}
	if d.cfg.SDCard {
		c.Backend = storage.BackendSD
		c.PackedCommands = false
	}
	if d.cfg.CommandQueue {
		c.QueueDepth = 32 // eMMC 5.1 CQE exposes 32 task slots
	}
	return c
}

// FaultCounts exposes the injector's per-kind fault totals (all zero when
// injection is off).
func (d *Device) FaultCounts() faults.Counts { return d.inj.Counts() }

// FaultDraws reports the injector's decision-stream position (0 when
// injection is off).
func (d *Device) FaultDraws() int64 { return d.inj.Draws() }

// SetFaultConfig replaces the device's fault injector with a fresh one
// built from fc (nil = injection off). The new injector starts at draw 0,
// as if fc had been in the construction config — the FTL shares it, so the
// decision stream stays one deterministic sequence.
func (d *Device) SetFaultConfig(fc *faults.Config) error {
	inj, err := faults.New(fc)
	if err != nil {
		return err
	}
	d.cfg.Faults = fc
	d.inj = inj
	d.ftl.SetFaults(inj)
	return nil
}

// AddArtificialWear pre-ages a pool (aging studies).
func (d *Device) AddArtificialWear(pool int, erases int64) {
	d.ftl.AddArtificialWear(pool, erases)
}

// Pools describes the device's flash pools; Wear indexes into this slice.
func (d *Device) Pools() []flash.PoolSpec { return d.ftl.Pools() }

// readRetryFactor returns the wear-dependent read latency multiplier for a
// pool, memoized until the pool's wear level changes.
func (d *Device) readRetryFactor(pool int) float64 {
	if d.cfg.Reliability == nil {
		return 1
	}
	pe := d.ftl.PoolAvgPE(pool)
	if d.relFactor[pool] == 0 || pe != d.relPE[pool] {
		d.relPE[pool] = pe
		d.relFactor[pool] = d.cfg.Reliability.ReadLatencyFactor(pe)
	}
	return d.relFactor[pool]
}

// MapCacheStats exposes the mapping-cache counters (zero when disabled).
func (d *Device) MapCacheStats() ftl.MapCacheStats {
	if d.mapCache == nil {
		return ftl.MapCacheStats{}
	}
	return d.mapCache.Stats()
}

// mapAccess charges the translation I/O for touching the mapping entry of
// the LPN: a translation-page read per miss and a program per dirty
// eviction, serialized in the controller before the data operations.
func (d *Device) mapAccess(lpn int64, dirty bool) int64 {
	if d.mapCache == nil {
		return 0
	}
	tReads, tWrites := d.mapCache.Access(lpn, dirty)
	if tReads == 0 && tWrites == 0 {
		return 0
	}
	var ns int64
	if tReads > 0 {
		ns += int64(tReads) * d.cfg.Timing.Read(4096)
		d.metrics.MapReads += int64(tReads)
	}
	if tWrites > 0 {
		ns += int64(tWrites) * d.cfg.Timing.Program(4096)
		d.metrics.MapWrites += int64(tWrites)
	}
	d.metrics.MapNs += ns
	return ns
}

// Utilization reports how busy the device's resources were over the replay
// horizon [0, LastActivity]: the fraction of time each channel and plane
// held work, plus the device-level busy fraction. Smartphone traces leave
// the device overwhelmingly idle — the quantitative basis of Implication 1
// and Implication 2's idle-gap budget.
type Utilization struct {
	Channels []float64
	Planes   []float64
	// Device is total request service time over the horizon.
	Device float64
}

// Utilization computes resource busy fractions.
func (d *Device) Utilization() Utilization {
	var u Utilization
	horizon := d.lastEnd
	if horizon <= 0 {
		return u
	}
	for i := range d.channels {
		_, busy := d.channels[i].State()
		u.Channels = append(u.Channels, float64(busy)/float64(horizon))
	}
	for i := range d.planes {
		_, busy := d.planes[i].State()
		u.Planes = append(u.Planes, float64(busy)/float64(horizon))
	}
	u.Device = float64(d.metrics.SumServiceNs) / float64(horizon)
	return u
}

// LastActivity returns the completion time of the device's most recent
// request — callers resuming a snapshot rebase new sessions past it
// (see trace.Shift).
func (d *Device) LastActivity() int64 { return d.lastEnd }

// BufferHitRate returns the RAM buffer's read hit rate, or 0 when disabled.
func (d *Device) BufferHitRate() float64 {
	if d.buffer == nil {
		return 0
	}
	return d.buffer.HitRate()
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Geometry returns the flash array's shape.
func (d *Device) Geometry() flash.Geometry { return d.cfg.Geometry }

// CapacityBytes returns the device's physical flash capacity.
func (d *Device) CapacityBytes() int64 {
	var total int64
	for _, p := range d.cfg.Pools {
		total += p.BytesPerPlane() * int64(d.cfg.Geometry.Planes())
	}
	return total
}

// Metrics returns a copy of the accumulated metrics.
func (d *Device) Metrics() Metrics { return d.metrics }

// FTLStats exposes the translation layer's accounting (space utilization,
// GC totals).
func (d *Device) FTLStats() ftl.Stats { return d.ftl.Stats() }

// CheckConsistency verifies the translation layer's invariants: mapping
// and reverse map agree with every page's live count, and retired blocks
// are empty and out of service. It returns the first violation found.
func (d *Device) CheckConsistency() error { return d.ftl.CheckConsistency() }

// Wear exposes the erase distribution of pool index pool.
func (d *Device) Wear(pool int) ftl.WearSummary { return d.ftl.Wear(pool) }

// chunk is one physical page operation derived from a host request.
type chunk struct {
	pool     int
	lpns     []int64
	pageSize int
}

// splitWrite decomposes a write of the given sectors into page chunks:
// whole large pages first, then smaller pools, the remainder padding the
// smallest pool's page (the source of 8PS's wasted flash space, §V-A).
// The returned slice is device scratch, valid until the next splitWrite
// call; its chunks alias lpns.
func (d *Device) splitWrite(lpns []int64) []chunk {
	out := d.chunkBuf[:0]
	rest := lpns
	for pi, pool := range d.cfg.Pools {
		spp := pool.SectorsPerPage()
		last := pi == len(d.cfg.Pools)-1
		for len(rest) >= spp || (last && len(rest) > 0) {
			n := spp
			if n > len(rest) {
				n = len(rest)
			}
			out = append(out, chunk{pool: pi, lpns: rest[:n], pageSize: pool.PageBytes})
			rest = rest[n:]
		}
	}
	d.chunkBuf = out
	return out
}

// resetUnitOps clears and returns the per-request pipelining counters (one
// per serialization unit; plane indices are the superset of channel
// indices, so one slice serves both keyings).
func (d *Device) resetUnitOps() []int {
	if d.unitOps == nil {
		d.unitOps = make([]int, len(d.planes))
	}
	ops := d.unitOps
	for i := range ops {
		ops[i] = 0
	}
	return ops
}

// opCost applies the pipelining factor to the latency of the n-th (0-based)
// consecutive flash operation a request issues to one serialization unit —
// the plane when the channel interleaves, the channel itself otherwise
// (cache-mode sequential program/read within one packed command).
func (d *Device) opCost(base int64, nthOnUnit int) int64 {
	if nthOnUnit == 0 {
		return base
	}
	return int64(float64(base) * d.cfg.Timing.PipelineFactor)
}

// serialUnit returns the index a request's per-unit op counter is keyed by
// for pipelining purposes.
func (d *Device) serialUnit(plane int) int {
	if d.cfg.Timing.ChannelInterleave {
		return plane
	}
	return d.cfg.Geometry.ChannelOf(plane)
}

// scheduleWrite places one program operation (transfer then program, plus
// any GC stall) on a channel/plane pair and returns its completion time.
// pageBytes attributes the sub-request to its 4K/8K pool in telemetry.
func (d *Device) scheduleWrite(opsStart int64, plane int, transfer, opNs int64, pageBytes int) int64 {
	chIdx := d.cfg.Geometry.ChannelOf(plane)
	ch := &d.channels[chIdx]
	pl := &d.planes[plane]
	d.observeSub(pageBytes)
	if d.cfg.Timing.ChannelInterleave {
		// Channel frees after the transfer; the plane runs the program.
		chStart, chEnd := ch.Reserve(opsStart, transfer)
		plStart, plEnd := pl.Reserve(chEnd, opNs)
		if d.tracer != nil {
			pg := telemetry.L("page", pageLabel(pageBytes))
			d.tracer.Span("emmc", trackChannel(chIdx), "xfer-in", chStart, chEnd, pg)
			d.tracer.Span("emmc", trackPlane(plane), "program", plStart, plEnd, pg)
		}
		return plEnd
	}
	// Simple controller: the channel is held through the program.
	start := opsStart
	if f := ch.FreeAt(); f > start {
		start = f
	}
	if f := pl.FreeAt() - transfer; f > start {
		start = f
	}
	ch.ReserveWindow(start, transfer+opNs)
	pl.ReserveWindow(start+transfer, opNs)
	if d.tracer != nil {
		pg := telemetry.L("page", pageLabel(pageBytes))
		d.tracer.Span("emmc", trackChannel(chIdx), "xfer+program", start, start+transfer+opNs, pg)
		d.tracer.Span("emmc", trackPlane(plane), "program", start+transfer, start+transfer+opNs, pg)
	}
	return start + transfer + opNs
}

// scheduleRead places one read operation (flash read then transfer out) and
// returns its completion time.
func (d *Device) scheduleRead(opsStart int64, plane int, opNs, transfer int64, pageBytes int) int64 {
	chIdx := d.cfg.Geometry.ChannelOf(plane)
	ch := &d.channels[chIdx]
	pl := &d.planes[plane]
	d.observeSub(pageBytes)
	if d.cfg.Timing.ChannelInterleave {
		plStart, plEnd := pl.Reserve(opsStart, opNs)
		chStart, chEnd := ch.Reserve(plEnd, transfer)
		if d.tracer != nil {
			pg := telemetry.L("page", pageLabel(pageBytes))
			d.tracer.Span("emmc", trackPlane(plane), "read", plStart, plEnd, pg)
			d.tracer.Span("emmc", trackChannel(chIdx), "xfer-out", chStart, chEnd, pg)
		}
		return chEnd
	}
	start := opsStart
	if f := ch.FreeAt(); f > start {
		start = f
	}
	if f := pl.FreeAt(); f > start {
		start = f
	}
	ch.ReserveWindow(start, opNs+transfer)
	pl.ReserveWindow(start, opNs)
	if d.tracer != nil {
		pg := telemetry.L("page", pageLabel(pageBytes))
		d.tracer.Span("emmc", trackChannel(chIdx), "read+xfer", start, start+opNs+transfer, pg)
		d.tracer.Span("emmc", trackPlane(plane), "read", start, start+opNs, pg)
	}
	return start + opNs + transfer
}

func (d *Device) gcTime(w ftl.GCWork, pageBytes int) int64 {
	t := d.cfg.Timing
	var moveNs int64
	if w.PageMoves > 0 {
		moveNs = int64(w.PageMoves) * (t.Read(pageBytes) + t.Program(pageBytes))
	}
	// Failed operations still occupy the plane until the status fail: a full
	// program per rejected program, a full erase per rejected erase.
	faultNs := int64(w.ProgramFaults)*t.Program(pageBytes) + int64(w.EraseFaults)*t.EraseNs
	return moveNs + faultNs + int64(w.Erases)*t.EraseNs
}

// Submit services one request and returns its timing. Requests must arrive
// in nondecreasing arrival order.
func (d *Device) Submit(req trace.Request) (Result, error) {
	return d.SubmitAt(req.Arrival, req)
}

// SubmitAt services one request dispatched at dispatchAt (at least its
// arrival): Submit with an explicit dispatch time, the single-request fast
// path of the replay loops. It allocates nothing in steady state.
func (d *Device) SubmitAt(dispatchAt int64, req trace.Request) (Result, error) {
	if req.Size == 0 || req.Size%trace.PageSize != 0 {
		return Result{}, fmt.Errorf("emmc: request size %d not page aligned", req.Size)
	}
	if req.Arrival > dispatchAt {
		return Result{}, fmt.Errorf("emmc: packed member arrives after dispatch")
	}
	serviceStart, opsStart, waited, err := d.beginCommand(dispatchAt)
	if err != nil {
		return Result{}, err
	}
	res, err := d.serveOne(req, serviceStart, opsStart, waited)
	if err != nil {
		return Result{}, err
	}
	d.finishCommand(res.Finish)
	return res, nil
}

// SubmitPacked services several requests as one packed eMMC command
// (Fig. 2's packing function): the command pays the controller's
// per-request overhead once, its members' flash operations share the
// command's schedule, and the device is busy until the last member
// finishes. dispatchAt is when the driver issued the command (at least the
// latest member arrival).
func (d *Device) SubmitPacked(dispatchAt int64, reqs []trace.Request) ([]Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("emmc: empty packed command")
	}
	for _, req := range reqs {
		if req.Size == 0 || req.Size%trace.PageSize != 0 {
			return nil, fmt.Errorf("emmc: request size %d not page aligned", req.Size)
		}
		if req.Arrival > dispatchAt {
			return nil, fmt.Errorf("emmc: packed member arrives after dispatch")
		}
	}
	serviceStart, opsStart, waited, err := d.beginCommand(dispatchAt)
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(reqs))
	var cmdFinish int64
	for _, req := range reqs {
		res, err := d.serveOne(req, serviceStart, opsStart, waited)
		if err != nil {
			return nil, err
		}
		if res.Finish > cmdFinish {
			cmdFinish = res.Finish
		}
		out = append(out, res)
	}
	d.finishCommand(cmdFinish)
	return out, nil
}

// beginCommand runs the per-command preamble shared by every submit path:
// the FIFO wait, the power-mode wake penalty, the controller overhead, and
// the idle-gap GC/destage work. It returns when service starts and when
// flash operations may begin.
func (d *Device) beginCommand(dispatchAt int64) (serviceStart, opsStart int64, waited bool, err error) {
	waited = d.freeAt > dispatchAt
	serviceStart = dispatchAt
	if waited && !d.cfg.CommandQueue {
		serviceStart = d.freeAt
	}

	// Power-mode wake penalty: the device has been idle since lastEnd.
	opsStart = serviceStart
	if d.cfg.PowerSaving && d.metrics.Served > 0 {
		idle := serviceStart - d.lastEnd
		switch {
		case d.cfg.DeepSleepAfter > 0 && idle >= d.cfg.DeepSleepAfter:
			opsStart += d.cfg.DeepWake
			d.metrics.DeepWakes++
			d.metrics.WakeNs += d.cfg.DeepWake
			if d.tel != nil {
				d.tel.deepWakes.Inc()
			}
			d.tracer.Instant("emmc", "device", "deep-wake", serviceStart)
		case d.cfg.LightSleepAfter > 0 && idle >= d.cfg.LightSleepAfter:
			opsStart += d.cfg.LightWake
			d.metrics.LightWakes++
			d.metrics.WakeNs += d.cfg.LightWake
			if d.tel != nil {
				d.tel.lightWakes.Inc()
			}
			d.tracer.Instant("emmc", "device", "light-wake", serviceStart)
		}
	}
	opsStart += d.cfg.Timing.RequestOverheadNs

	// Idle-policy GC: clean pools that hit the threshold, absorbing the cost
	// into the gap the device just sat idle.
	if d.cfg.GCPolicy == GCIdle {
		over, gerr := d.runIdleGC(dispatchAt)
		if gerr != nil {
			return 0, 0, false, gerr
		}
		opsStart += over
	}
	// Idle destage: the write buffer drains into the same gaps.
	if d.writeBuf != nil {
		budget := dispatchAt - d.lastEnd
		if budget > 0 {
			d.destageIdle(budget)
		}
	}
	return serviceStart, opsStart, waited, nil
}

// serveOne services one member request of a command whose preamble already
// ran, accumulating metrics and returning its Result.
func (d *Device) serveOne(req trace.Request, serviceStart, opsStart int64, waited bool) (Result, error) {
	startLPN := int64(req.LBA) / trace.SectorsPerPage
	nSectors := int(req.Size) / trace.PageSize
	lpns := d.lpnBuf[:0]
	for i := 0; i < nSectors; i++ {
		lpns = append(lpns, startLPN+int64(i))
	}
	d.lpnBuf = lpns

	var finish int64
	var err error
	if req.Op == trace.Write {
		finish, err = d.serveWrite(opsStart, lpns)
	} else {
		finish, err = d.serveRead(opsStart, lpns)
	}
	if err != nil {
		return Result{}, err
	}

	d.metrics.Served++
	if !waited {
		d.metrics.NoWait++
	}
	d.metrics.SumServiceNs += finish - serviceStart
	d.metrics.SumResponseNs += finish - req.Arrival
	d.metrics.SumWaitNs += serviceStart - req.Arrival
	if d.tel != nil {
		if req.Op == trace.Write {
			d.tel.writes.Inc()
			d.tel.writeServNs.Observe(finish - serviceStart)
		} else {
			d.tel.reads.Inc()
			d.tel.readServNs.Observe(finish - serviceStart)
		}
		d.tel.waitNs.Observe(serviceStart - req.Arrival)
	}
	return Result{ServiceStart: serviceStart, Finish: finish, Waited: waited}, nil
}

// finishCommand advances the FIFO/idle cursors after a command's last
// member finishes and refreshes the occupancy gauges.
func (d *Device) finishCommand(cmdFinish int64) {
	if !d.cfg.CommandQueue || cmdFinish > d.freeAt {
		d.freeAt = cmdFinish
	}
	if cmdFinish > d.lastEnd {
		d.lastEnd = cmdFinish
	}
	if d.tel != nil {
		for i := range d.channels {
			_, busy := d.channels[i].State()
			d.tel.chanBusy[i].Set(busy)
		}
		if d.writeBuf != nil {
			d.tel.wbBytes.Set(d.writeBuf.usedBytes)
		}
	}
}

// serveWrite programs all chunks, striping across planes. With the write
// buffer enabled, chunks are acknowledged from RAM (transfer cost only) and
// destaged later; a full buffer destages synchronously first.
func (d *Device) serveWrite(opsStart int64, lpns []int64) (int64, error) {
	chunks := d.splitWrite(lpns)
	for _, c := range chunks {
		opsStart += d.mapAccess(c.lpns[0], true)
	}
	if d.writeBuf != nil {
		need := int64(len(lpns)) * flash.SectorBytes
		opsStart += d.destageForSpace(need)
		finish := opsStart
		for _, c := range chunks {
			d.writeBuf.add(c.pool, c.lpns)
			d.metrics.BufferedWrites++
			if d.buffer != nil {
				for _, lpn := range c.lpns {
					d.buffer.writeAllocate(lpn)
				}
			}
			payload := len(c.lpns) * flash.SectorBytes
			ch := d.rrPlane % d.cfg.Geometry.Channels
			chStart, chEnd := d.channels[ch].Reserve(opsStart, d.cfg.Timing.Transfer(payload))
			if d.tracer != nil {
				d.tracer.Span("emmc", trackChannel(ch), "wb-ack", chStart, chEnd,
					telemetry.L("page", pageLabel(c.pageSize)))
			}
			d.observeSub(c.pageSize)
			if chEnd > finish {
				finish = chEnd
			}
		}
		return finish, nil
	}
	perPlaneOps := d.resetUnitOps()
	finish := opsStart
	for _, c := range chunks {
		plane := d.rrPlane % len(d.planes)
		d.rrPlane++

		loc, gcWork, err := d.ftl.Write(plane, c.pool, c.lpns)
		if err != nil {
			return 0, err
		}
		var gcNs int64
		if !gcWork.Zero() {
			gcNs = d.gcTime(gcWork, c.pageSize)
			d.metrics.ForegroundGC.Add(gcWork)
			d.metrics.GCStallNs += gcNs
			if d.tel != nil {
				d.tel.gcStallNs.Add(gcNs)
			}
			d.tracer.Instant("ftl", "gc", "foreground-gc", opsStart,
				telemetry.L("page", pageLabel(c.pageSize)))
		}
		if d.buffer != nil {
			for _, lpn := range c.lpns {
				d.buffer.writeAllocate(lpn)
			}
		}

		payload := len(c.lpns) * flash.SectorBytes
		unit := d.serialUnit(plane)
		base := d.cfg.Timing.ProgramPool(d.cfg.Pools[c.pool], int(loc.Page))
		prog := d.opCost(base, perPlaneOps[unit])
		perPlaneOps[unit]++
		end := d.scheduleWrite(opsStart, plane, d.cfg.Timing.Transfer(payload), gcNs+prog, c.pageSize)
		if end > finish {
			finish = end
		}
	}
	return finish, nil
}

// PrefetchStats reports read-ahead activity: prefetched sectors and how
// many later reads they served.
func (d *Device) PrefetchStats() (prefetched, hits int64) {
	return d.prefetches, d.prefetchHit
}

// readAhead loads the next sequential sectors into the RAM buffer after a
// read ending at endLPN (free of charge: the device fetches them while the
// host is idle). Hits are detected by the buffer probe on later reads.
func (d *Device) readAhead(endLPN int64) {
	if d.cfg.ReadAheadPages <= 0 || d.buffer == nil {
		return
	}
	for i := int64(0); i < int64(d.cfg.ReadAheadPages); i++ {
		d.buffer.writeAllocate(endLPN + i)
		d.prefetches++
	}
}

// readOp is one physical page read derived from a host request. The
// device's readOps scratch accumulates them per request.
type readOp struct {
	plane   int
	pool    int
	payload int
	// loc/mapped identify the physical page for mapped reads — the
	// fault-recovery path needs it to retire the failing block.
	loc    ftl.Loc
	mapped bool
}

// flushPendingReads converts the accumulated unmapped-sector run into read
// ops laid out by the write splitter, then clears the run.
func (d *Device) flushPendingReads() {
	if len(d.pendingLPNs) == 0 {
		return
	}
	for _, c := range d.splitWrite(d.pendingLPNs) {
		plane := d.rrPlane % len(d.planes)
		d.rrPlane++
		d.readOps = append(d.readOps, readOp{plane: plane, pool: c.pool, payload: len(c.lpns) * flash.SectorBytes})
	}
	d.pendingLPNs = d.pendingLPNs[:0]
}

// serveRead reads the physical pages backing the request. Mapped sectors are
// read wherever (and at whatever page size) they were written; unmapped
// sectors — reads of never-written data — are charged as if laid out by the
// write splitter.
func (d *Device) serveRead(opsStart int64, lpns []int64) (int64, error) {
	for _, lpn := range lpns {
		opsStart += d.mapAccess(lpn, false)
	}
	d.readOps = d.readOps[:0]
	d.pendingLPNs = d.pendingLPNs[:0] // unmapped run
	var lastLoc ftl.Loc
	haveLast := false
	hitSectors := 0
	prefetched := d.cfg.ReadAheadPages > 0 && d.buffer != nil && len(lpns) > 0 && lpns[0] == d.lastReadEnd
	for _, lpn := range lpns {
		if d.writeBuf != nil && d.writeBuf.holds(lpn) {
			// Dirty in the write buffer: served from RAM.
			hitSectors++
			continue
		}
		if d.buffer != nil && d.buffer.readProbe(lpn) {
			// Served from device RAM: no flash operation, only host transfer.
			hitSectors++
			if prefetched {
				d.prefetchHit++
			}
			continue
		}
		loc, ok := d.ftl.Lookup(lpn)
		if !ok {
			d.pendingLPNs = append(d.pendingLPNs, lpn)
			continue
		}
		if haveLast && loc == lastLoc {
			// Same physical page as the previous sector: one read covers it.
			d.readOps[len(d.readOps)-1].payload += flash.SectorBytes
			continue
		}
		d.flushPendingReads()
		d.readOps = append(d.readOps, readOp{plane: int(loc.Plane), pool: int(loc.Pool), payload: flash.SectorBytes,
			loc: loc, mapped: true})
		lastLoc, haveLast = loc, true
	}
	d.flushPendingReads()

	if n := len(lpns); n > 0 {
		d.lastReadEnd = lpns[n-1] + 1
		d.readAhead(d.lastReadEnd)
	}

	perPlaneOps := d.resetUnitOps()
	finish := opsStart
	if hitSectors > 0 {
		ch := d.rrPlane % d.cfg.Geometry.Channels
		chStart, chEnd := d.channels[ch].Reserve(opsStart, d.cfg.Timing.Transfer(hitSectors*flash.SectorBytes))
		if d.tracer != nil {
			d.tracer.Span("emmc", trackChannel(ch), "ram-hit-xfer", chStart, chEnd)
		}
		if chEnd > finish {
			finish = chEnd
		}
	}
	for _, op := range d.readOps {
		unit := d.serialUnit(op.plane)
		rd := d.opCost(d.cfg.Timing.ReadPool(d.cfg.Pools[op.pool]), perPlaneOps[unit])
		if f := d.readRetryFactor(op.pool); f > 1 {
			rd = int64(float64(rd) * f)
		}
		perPlaneOps[unit]++
		// Uncorrectable read: the page stays unreadable after the retry
		// ladder, so the plane burns the extra attempts and the controller
		// read-scrubs the block into retirement — all charged to this read.
		if op.mapped && d.inj.ReadUncorrectable(d.ftl.PoolAvgPE(op.pool)) {
			rec, rerr := d.ftl.RetireBlockAt(op.loc)
			extra := int64(d.inj.RecoveryReads())*d.cfg.Timing.ReadPool(d.cfg.Pools[op.pool]) +
				d.gcTime(rec, d.cfg.Pools[op.pool].PageBytes)
			rd += extra
			d.metrics.ReadFaults++
			d.metrics.RecoveryNs += extra
			if d.tel != nil {
				d.tel.readFaults.Inc()
				d.tel.recoveryNs.Add(extra)
				d.tel.recoveryHist.Observe(extra)
			}
			d.tracer.Instant("emmc", "device", "read-recovery", opsStart)
			if rerr != nil {
				return 0, fmt.Errorf("emmc: read-scrub recovery: %w (after %w)", rerr, flash.ErrUncorrectable)
			}
		}
		end := d.scheduleRead(opsStart, op.plane, rd, d.cfg.Timing.Transfer(op.payload),
			d.cfg.Pools[op.pool].PageBytes)
		if end > finish {
			finish = end
		}
	}
	return finish, nil
}

// Flush services a cache-flush barrier: it drains every in-flight
// operation (all channels and planes) and then pays the flush cost. The
// journaling stack issues one per fsync/commit.
func (d *Device) Flush(dispatchAt int64) (Result, error) {
	waited := d.freeAt > dispatchAt
	start := dispatchAt
	if d.freeAt > start {
		start = d.freeAt
	}
	for i := range d.channels {
		if f := d.channels[i].FreeAt(); f > start {
			start = f
		}
	}
	for i := range d.planes {
		if f := d.planes[i].FreeAt(); f > start {
			start = f
		}
	}
	serviceStart := start
	// A barrier forces every buffered write to flash first.
	for d.writeBuf != nil {
		ns := d.destageOne()
		if ns <= 0 {
			break
		}
		start += ns
		d.metrics.DestageStallNs += ns
		if d.tel != nil {
			d.tel.destageBarrier.Inc()
		}
	}
	cost := d.cfg.FlushNs
	if cost <= 0 {
		cost = 500_000
	}
	finish := start + cost
	d.freeAt = finish
	d.lastEnd = finish
	d.metrics.Flushes++
	d.metrics.FlushNs += cost
	if d.tel != nil {
		d.tel.flushes.Inc()
		if d.writeBuf != nil {
			d.tel.wbBytes.Set(d.writeBuf.usedBytes)
		}
	}
	d.tracer.Span("emmc", "device", "flush", serviceStart, finish)
	return Result{ServiceStart: serviceStart, Finish: finish, Waited: waited}, nil
}

// runIdleGC cleans threshold pools, absorbing cost into the idle gap the
// device accumulated before this request. It returns the overflow charged
// to the request.
func (d *Device) runIdleGC(arrival int64) (int64, error) {
	budget := arrival - d.lastEnd
	if budget < 0 {
		budget = 0
	}
	var overflow int64
	for plane := 0; plane < len(d.planes); plane++ {
		for pool := range d.cfg.Pools {
			if !d.ftl.NeedsGC(plane, pool) {
				continue
			}
			work, err := d.ftl.CollectGarbage(plane, pool)
			if err != nil {
				return overflow, fmt.Errorf("emmc: idle GC: %w", err)
			}
			if work.Zero() {
				continue
			}
			ns := d.gcTime(work, d.cfg.Pools[pool].PageBytes)
			d.metrics.IdleGC.Add(work)
			d.tracer.Instant("ftl", "gc", "idle-gc", arrival,
				telemetry.L("page", pageLabel(d.cfg.Pools[pool].PageBytes)))
			if ns <= budget {
				budget -= ns
				d.metrics.IdleGCNs += ns
				if d.tel != nil {
					d.tel.idleGCNs.Add(ns)
				}
			} else {
				d.metrics.IdleGCNs += budget
				over := ns - budget
				if d.tel != nil {
					d.tel.idleGCNs.Add(budget)
					d.tel.gcStallNs.Add(over)
				}
				budget = 0
				overflow += over
				d.metrics.GCStallNs += over
			}
		}
	}
	return overflow, nil
}

// deviceSnapshot is the gob layout of a device's dynamic state. The RAM
// buffer and mapping cache restart cold (they are caches; only their
// statistics would change, and those reset too).
type deviceSnapshot struct {
	Config      Config
	FTL         *ftl.SnapshotData
	FreeAt      int64
	LastEnd     int64
	RRPlane     int
	Metrics     Metrics
	ChannelFree []int64
	ChannelBusy []int64
	PlaneFree   []int64
	PlaneBusy   []int64
	// FaultState archives the injector's generator state so a restored
	// device resumes the exact fault sequence; FaultDraws is its position
	// in the decision stream, kept for reporting.
	FaultState [4]uint64
	FaultDraws int64
}

// Snapshot archives the device (configuration, FTL state, timing cursors,
// metrics) to w, so an aged device can be resumed later without replaying
// its history.
func (d *Device) Snapshot(w io.Writer) error {
	snap := deviceSnapshot{
		Config:     d.cfg,
		FTL:        d.ftl.SnapshotData(),
		FreeAt:     d.freeAt,
		LastEnd:    d.lastEnd,
		RRPlane:    d.rrPlane,
		Metrics:    d.metrics,
		FaultState: d.inj.State(),
		FaultDraws: d.inj.Draws(),
	}
	for i := range d.channels {
		f, b := d.channels[i].State()
		snap.ChannelFree = append(snap.ChannelFree, f)
		snap.ChannelBusy = append(snap.ChannelBusy, b)
	}
	for i := range d.planes {
		f, b := d.planes[i].State()
		snap.PlaneFree = append(snap.PlaneFree, f)
		snap.PlaneBusy = append(snap.PlaneBusy, b)
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("emmc: encoding snapshot: %w", err)
	}
	return nil
}

// RestoreSnapshot rebuilds a device from a Snapshot stream.
func RestoreSnapshot(r io.Reader) (*Device, error) {
	var snap deviceSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("emmc: decoding snapshot: %w", err)
	}
	if err := snap.Config.Validate(); err != nil {
		return nil, fmt.Errorf("emmc: snapshot config: %w", err)
	}
	if snap.FTL == nil {
		return nil, fmt.Errorf("emmc: snapshot missing FTL state")
	}
	if !reflect.DeepEqual(snap.FTL.Config, snap.Config.ftlConfig()) {
		return nil, fmt.Errorf("emmc: snapshot FTL configuration disagrees with the device configuration")
	}
	f, err := ftl.RestoreFromData(snap.FTL)
	if err != nil {
		return nil, err
	}
	inj, err := faults.Resume(snap.Config.Faults, snap.FaultState, snap.FaultDraws)
	if err != nil {
		return nil, err
	}
	f.SetFaults(inj)
	d := &Device{
		cfg:       snap.Config,
		ftl:       f,
		inj:       inj,
		channels:  make([]sim.Resource, snap.Config.Geometry.Channels),
		planes:    make([]sim.Resource, snap.Config.Geometry.Planes()),
		buffer:    newRAMBuffer(snap.Config.RAMBufferBytes),
		mapCache:  ftl.NewMapCache(snap.Config.MapCacheBytes),
		relFactor: make([]float64, len(snap.Config.Pools)),
		relPE:     make([]float64, len(snap.Config.Pools)),
		freeAt:    snap.FreeAt,
		lastEnd:   snap.LastEnd,
		rrPlane:   snap.RRPlane,
		metrics:   snap.Metrics,
	}
	if len(snap.ChannelFree) != len(d.channels) || len(snap.ChannelBusy) != len(d.channels) ||
		len(snap.PlaneFree) != len(d.planes) || len(snap.PlaneBusy) != len(d.planes) {
		return nil, fmt.Errorf("emmc: snapshot resource counts mismatch")
	}
	if snap.RRPlane < 0 {
		return nil, fmt.Errorf("emmc: snapshot plane cursor %d is negative", snap.RRPlane)
	}
	for _, ts := range [][]int64{{snap.FreeAt, snap.LastEnd}, snap.ChannelFree, snap.ChannelBusy, snap.PlaneFree, snap.PlaneBusy} {
		if !sim.ValidRestoredTimes(ts) {
			return nil, fmt.Errorf("emmc: snapshot clock value outside [0, %d]", sim.MaxRestoredTime)
		}
	}
	for i := range d.channels {
		d.channels[i].SetState(snap.ChannelFree[i], snap.ChannelBusy[i])
	}
	for i := range d.planes {
		d.planes[i].SetState(snap.PlaneFree[i], snap.PlaneBusy[i])
	}
	return d, nil
}
