// Package ufs models a UFS/NVMe-flavoured storage device behind the
// storage.Device seam: the same flash array and FTL as the eMMC model
// (internal/flash, internal/ftl, internal/faults are reused unchanged, so
// fault injection and wear/aging work identically), but a different host
// interface and controller discipline:
//
//   - a multi-queue command queue: Queues × QueueDepth command slots, so a
//     request waits only for a free slot, not for the whole device to go
//     idle, and completions are out of order by sim-time — the
//     forward-looking answer to the paper's Implication 1;
//   - an interleaving controller over a higher-parallelism geometry: the
//     channel frees after the data transfer and flash operations overlap
//     across planes (the SSD-style discipline eMMC 4.51 lacks);
//   - a write booster: an SLC-mode staging area that absorbs writes at
//     fast-page program latency and destages them to the main MLC pools
//     during idle gaps (or synchronously under pressure), the UFS 3.1
//     WriteBooster feature.
//
// No packed commands: UFS moves each request as its own UPIU exchange, and
// Caps advertises that, so the blockdev driver never packs for this device.
package ufs

import (
	"fmt"

	"emmcio/internal/faults"
	"emmcio/internal/flash"
	"emmcio/internal/ftl"
	"emmcio/internal/sim"
	"emmcio/internal/storage"
	"emmcio/internal/telemetry"
	"emmcio/internal/trace"
)

// Config describes a UFS device instance.
type Config struct {
	Geometry flash.Geometry
	Timing   flash.Timing
	// Pools lists the per-plane page-size pools, largest page first.
	Pools []flash.PoolSpec
	// GCFreeBlocks is the per-plane-pool free-block threshold.
	GCFreeBlocks int
	// Wear selects the FTL wear-leveling policy.
	Wear ftl.WearPolicy

	// Queues is the number of hardware submission queues (default 1; NVMe
	// would use several). QueueDepth is the command slots per queue
	// (default 32, the UFS 3.x task set size). Their product is how many
	// commands the device holds in flight.
	Queues     int
	QueueDepth int

	// WriteBoosterBytes is the SLC staging capacity (0 disables the
	// booster). Booster writes pay fast-page program latency; destage to
	// the main pools happens in idle gaps or synchronously under pressure.
	WriteBoosterBytes int64

	// FlushNs is the cost of a cache-flush barrier. Zero selects the
	// 100 µs default (UFS flushes are cheaper than eMMC's CMD6 path).
	FlushNs int64

	// Faults enables deterministic fault injection (shared model with the
	// other backends). Nil or rate-zero models perfect hardware.
	Faults *faults.Config
}

// slots returns the total command-slot count.
func (c Config) slots() int { return c.Queues * c.QueueDepth }

// ftlConfig is the translation-layer configuration the device runs.
func (c Config) ftlConfig() ftl.Config {
	return ftl.Config{
		Geometry:     c.Geometry,
		Pools:        c.Pools,
		GCFreeBlocks: c.GCFreeBlocks,
		Wear:         c.Wear,
	}
}

// maxSlots bounds queues × queue depth: the slot table is sized from the
// configuration, so the bound keeps a decoded snapshot from sizing it past
// any real part (UFS 4.0 MCQ tops out at 32 queues of 256 entries).
const maxSlots = 1 << 16

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if len(c.Pools) == 0 {
		return fmt.Errorf("ufs: no pools")
	}
	for i, p := range c.Pools {
		if err := p.Validate(); err != nil {
			return err
		}
		if _, ok := c.Timing.PerPage[p.PageBytes]; !ok {
			return fmt.Errorf("ufs: no timing for pool page size %d", p.PageBytes)
		}
		if i > 0 && c.Pools[i].PageBytes >= c.Pools[i-1].PageBytes {
			return fmt.Errorf("ufs: pools must be ordered largest page first")
		}
	}
	if c.GCFreeBlocks < 1 {
		return fmt.Errorf("ufs: GC threshold below 1")
	}
	if c.Queues < 1 || c.QueueDepth < 1 {
		return fmt.Errorf("ufs: need at least one queue and one slot, got %dx%d", c.Queues, c.QueueDepth)
	}
	if c.Queues > maxSlots || c.QueueDepth > maxSlots/c.Queues {
		return fmt.Errorf("ufs: %dx%d command slots exceed %d", c.Queues, c.QueueDepth, maxSlots)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Device is one simulated UFS instance. It implements storage.Device.
type Device struct {
	cfg      Config
	ftl      *ftl.FTL
	channels []sim.Resource
	planes   []sim.Resource
	// slots holds the free-at time of every command slot. A request claims
	// the earliest-free slot, so completions are out of order by sim-time:
	// a short read admitted after a long write finishes first.
	slots   []int64
	lastEnd int64
	rrPlane int
	booster *booster
	metrics storage.Metrics
	inj     *faults.Injector

	tel    *devTel
	tracer *telemetry.Tracer

	// Per-request scratch, reused across submissions (the device is
	// single-goroutine per the storage.Device contract). Contents are only
	// meaningful within one submit call; every consumer that outlives the
	// call (FTL reverse map, booster) copies what it keeps.
	lpnBuf      []int64
	chunkBuf    []chunk
	readOps     []readOp
	pendingLPNs []int64
	planeOps    []int
}

// New builds a fresh device.
func New(cfg Config) (*Device, error) {
	if cfg.Queues == 0 {
		cfg.Queues = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 32
	}
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
		cfg:      cfg,
		ftl:      f,
		channels: make([]sim.Resource, cfg.Geometry.Channels),
		planes:   make([]sim.Resource, cfg.Geometry.Planes()),
		slots:    make([]int64, cfg.slots()),
		booster:  newBooster(cfg.WriteBoosterBytes),
		inj:      inj,
	}, nil
}

// Caps advertises the command-queued, unpacked interface.
func (d *Device) Caps() storage.Caps {
	return storage.Caps{Backend: storage.BackendUFS, PackedCommands: false, QueueDepth: d.cfg.slots()}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Geometry returns the flash array's shape.
func (d *Device) Geometry() flash.Geometry { return d.cfg.Geometry }

// CapacityBytes returns the device's physical flash capacity (the main
// pools; the booster is over-provisioning, not addressable space).
func (d *Device) CapacityBytes() int64 {
	var total int64
	for _, p := range d.cfg.Pools {
		total += p.BytesPerPlane() * int64(d.cfg.Geometry.Planes())
	}
	return total
}

// Metrics returns a copy of the accumulated metrics.
func (d *Device) Metrics() storage.Metrics { return d.metrics }

// FTLStats exposes the translation layer's accounting.
func (d *Device) FTLStats() ftl.Stats { return d.ftl.Stats() }

// CheckConsistency verifies the translation layer's invariants: mapping
// and reverse map agree with every page's live count, and retired blocks
// are empty and out of service. It returns the first violation found.
func (d *Device) CheckConsistency() error { return d.ftl.CheckConsistency() }

// Wear exposes the erase distribution of pool index pool.
func (d *Device) Wear(pool int) ftl.WearSummary { return d.ftl.Wear(pool) }

// MapCacheStats is zero: the model gives UFS controllers enough RAM for
// the whole mapping table (DRAM-less eMMC is where map paging bites).
func (d *Device) MapCacheStats() ftl.MapCacheStats { return ftl.MapCacheStats{} }

// BufferHitRate reports the booster's read hit rate (0 when disabled).
func (d *Device) BufferHitRate() float64 { return d.booster.hitRate() }

// PrefetchStats is zero: no read-ahead in this model.
func (d *Device) PrefetchStats() (prefetched, hits int64) { return 0, 0 }

// FaultCounts exposes the injector's per-kind fault totals.
func (d *Device) FaultCounts() faults.Counts { return d.inj.Counts() }

// FaultDraws reports the injector's decision-stream position (0 when
// injection is off).
func (d *Device) FaultDraws() int64 { return d.inj.Draws() }

// SetFaultConfig replaces the device's fault injector with a fresh one
// built from fc (nil = injection off), starting at draw 0 — as if fc had
// been in the construction config. The FTL shares the new injector.
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
func (d *Device) AddArtificialWear(pool int, erases int64) { d.ftl.AddArtificialWear(pool, erases) }

// Pools describes the device's flash pools; Wear indexes into this slice.
func (d *Device) Pools() []flash.PoolSpec { return d.ftl.Pools() }

// LastActivity returns the completion time of the most recent request.
func (d *Device) LastActivity() int64 { return d.lastEnd }

// admit claims the earliest-free command slot for a request dispatched at
// dispatchAt. Ties break on slot index, keeping the schedule deterministic.
func (d *Device) admit(dispatchAt int64) (slot int, start int64, waited bool) {
	slot = 0
	for i := 1; i < len(d.slots); i++ {
		if d.slots[i] < d.slots[slot] {
			slot = i
		}
	}
	start = dispatchAt
	if d.slots[slot] > start {
		start = d.slots[slot]
		waited = true
	}
	return slot, start, waited
}

// chunk is one physical page operation derived from a host request.
type chunk struct {
	pool     int
	lpns     []int64
	pageSize int
}

// splitWrite decomposes a write into page chunks, largest pool first. The
// returned slice is device scratch, valid until the next splitWrite call;
// its chunks alias lpns.
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

// resetPlaneOps clears and returns the per-request pipelining counters
// (one per plane).
func (d *Device) resetPlaneOps() []int {
	if d.planeOps == nil {
		d.planeOps = make([]int, len(d.planes))
	}
	ops := d.planeOps
	for i := range ops {
		ops[i] = 0
	}
	return ops
}

// opCost applies the pipelining factor to the n-th consecutive operation a
// request issues to one plane (cache-mode program/read).
func (d *Device) opCost(base int64, nthOnPlane int) int64 {
	if nthOnPlane == 0 {
		return base
	}
	return int64(float64(base) * d.cfg.Timing.PipelineFactor)
}

// gcTime prices a unit of FTL garbage work in flash latency.
func (d *Device) gcTime(w ftl.GCWork, pageBytes int) int64 {
	t := d.cfg.Timing
	var moveNs int64
	if w.PageMoves > 0 {
		moveNs = int64(w.PageMoves) * (t.Read(pageBytes) + t.Program(pageBytes))
	}
	faultNs := int64(w.ProgramFaults)*t.Program(pageBytes) + int64(w.EraseFaults)*t.EraseNs
	return moveNs + faultNs + int64(w.Erases)*t.EraseNs
}

// scheduleWrite places one program (transfer, then program+GC on the plane)
// under the interleaved discipline and returns its completion time.
func (d *Device) scheduleWrite(opsStart int64, plane int, transfer, opNs int64, pageBytes int) int64 {
	chIdx := d.cfg.Geometry.ChannelOf(plane)
	chStart, chEnd := d.channels[chIdx].Reserve(opsStart, transfer)
	plStart, plEnd := d.planes[plane].Reserve(chEnd, opNs)
	if d.tracer != nil {
		pg := telemetry.L("page", pageLabel(pageBytes))
		d.tracer.Span("ufs", trackChannel(chIdx), "xfer-in", chStart, chEnd, pg)
		d.tracer.Span("ufs", trackPlane(plane), "program", plStart, plEnd, pg)
	}
	return plEnd
}

// scheduleRead places one read (flash read, then transfer out) and returns
// its completion time.
func (d *Device) scheduleRead(opsStart int64, plane int, opNs, transfer int64, pageBytes int) int64 {
	chIdx := d.cfg.Geometry.ChannelOf(plane)
	plStart, plEnd := d.planes[plane].Reserve(opsStart, opNs)
	chStart, chEnd := d.channels[chIdx].Reserve(plEnd, transfer)
	if d.tracer != nil {
		pg := telemetry.L("page", pageLabel(pageBytes))
		d.tracer.Span("ufs", trackPlane(plane), "read", plStart, plEnd, pg)
		d.tracer.Span("ufs", trackChannel(chIdx), "xfer-out", chStart, chEnd, pg)
	}
	return chEnd
}

// Submit services one request and returns its timing. Requests must arrive
// in nondecreasing arrival order.
func (d *Device) Submit(req trace.Request) (storage.Result, error) {
	return d.SubmitAt(req.Arrival, req)
}

// SubmitAt services one request dispatched at dispatchAt (at least its
// arrival): Submit with an explicit dispatch time, the single-request fast
// path of the replay loops. It allocates nothing in steady state.
func (d *Device) SubmitAt(dispatchAt int64, req trace.Request) (storage.Result, error) {
	if req.Size == 0 || req.Size%trace.PageSize != 0 {
		return storage.Result{}, fmt.Errorf("ufs: request size %d not page aligned", req.Size)
	}
	if req.Arrival > dispatchAt {
		return storage.Result{}, fmt.Errorf("ufs: batch member arrives after dispatch")
	}
	return d.submitOne(dispatchAt, req)
}

// SubmitPacked services a batch dispatched together at dispatchAt. UFS has
// no packed commands — each member claims its own command slot and runs as
// an independent exchange — but accepting batches keeps the blockdev
// dispatch path backend-neutral.
func (d *Device) SubmitPacked(dispatchAt int64, reqs []trace.Request) ([]storage.Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("ufs: empty command batch")
	}
	out := make([]storage.Result, 0, len(reqs))
	for _, req := range reqs {
		if req.Size == 0 || req.Size%trace.PageSize != 0 {
			return nil, fmt.Errorf("ufs: request size %d not page aligned", req.Size)
		}
		if req.Arrival > dispatchAt {
			return nil, fmt.Errorf("ufs: batch member arrives after dispatch")
		}
		res, err := d.submitOne(dispatchAt, req)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// submitOne runs one command through slot admission and the flash array.
func (d *Device) submitOne(dispatchAt int64, req trace.Request) (storage.Result, error) {
	// The booster drains into the gap the device just sat idle, like the
	// idle-GC policy: the host paid nothing for it.
	if budget := dispatchAt - d.lastEnd; budget > 0 {
		d.destageIdle(budget)
	}

	slot, serviceStart, waited := d.admit(dispatchAt)
	opsStart := serviceStart + d.cfg.Timing.RequestOverheadNs

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
		return storage.Result{}, err
	}

	d.slots[slot] = finish
	if finish > d.lastEnd {
		d.lastEnd = finish
	}
	d.metrics.Served++
	if !waited {
		d.metrics.NoWait++
	}
	d.metrics.SumServiceNs += finish - serviceStart
	d.metrics.SumResponseNs += finish - req.Arrival
	d.metrics.SumWaitNs += serviceStart - req.Arrival
	d.observeRequest(req.Op, finish-serviceStart, serviceStart-req.Arrival)
	return storage.Result{ServiceStart: serviceStart, Finish: finish, Waited: waited}, nil
}

// serveWrite programs the request's sectors. With the booster enabled, every
// chunk lands in SLC at fast-page latency (after any synchronous destage to
// make room); otherwise chunks go straight to the main pools via the FTL.
func (d *Device) serveWrite(opsStart int64, lpns []int64) (int64, error) {
	chunks := d.splitWrite(lpns)
	if d.booster != nil {
		opsStart += d.destageForSpace(int64(len(lpns)) * flash.SectorBytes)
		finish := opsStart
		perPlane := d.resetPlaneOps()
		for _, c := range chunks {
			plane := d.rrPlane % len(d.planes)
			d.rrPlane++
			d.booster.add(c.pool, c.lpns)
			d.metrics.BufferedWrites++
			payload := len(c.lpns) * flash.SectorBytes
			prog := d.opCost(d.slcProgram(c.pageSize), perPlane[plane])
			perPlane[plane]++
			end := d.scheduleWrite(opsStart, plane, d.cfg.Timing.Transfer(payload), prog, c.pageSize)
			if end > finish {
				finish = end
			}
		}
		d.observeBooster()
		return finish, nil
	}
	perPlane := d.resetPlaneOps()
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
			d.tracer.Instant("ftl", "gc", "foreground-gc", opsStart)
		}
		payload := len(c.lpns) * flash.SectorBytes
		prog := d.opCost(d.cfg.Timing.ProgramPool(d.cfg.Pools[c.pool], int(loc.Page)), perPlane[plane])
		perPlane[plane]++
		end := d.scheduleWrite(opsStart, plane, d.cfg.Timing.Transfer(payload), gcNs+prog, c.pageSize)
		if end > finish {
			finish = end
		}
	}
	return finish, nil
}

// slcProgram and slcRead price booster operations: fast-page latency of the
// given page size, using the Timing's SLC factors.
func (d *Device) slcProgram(pageBytes int) int64 {
	p := flash.PoolSpec{PageBytes: pageBytes, BlocksPerPlane: 1, PagesPerBlock: 1, SLCMode: true}
	return d.cfg.Timing.ProgramPool(p, 0)
}

func (d *Device) slcRead(pageBytes int) int64 {
	p := flash.PoolSpec{PageBytes: pageBytes, BlocksPerPlane: 1, PagesPerBlock: 1, SLCMode: true}
	return d.cfg.Timing.ReadPool(p)
}

// readOp is one physical page read derived from a host request. The
// device's readOps scratch accumulates them per request.
type readOp struct {
	plane   int
	pool    int
	payload int
	loc     ftl.Loc
	mapped  bool
	slc     bool
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

// serveRead reads the physical pages backing the request: booster-held
// sectors at SLC latency, mapped sectors wherever they were written,
// unmapped sectors as if laid out by the write splitter.
func (d *Device) serveRead(opsStart int64, lpns []int64) (int64, error) {
	d.readOps = d.readOps[:0]
	d.pendingLPNs = d.pendingLPNs[:0] // unmapped run
	var lastLoc ftl.Loc
	haveLast := false
	for _, lpn := range lpns {
		if d.booster != nil && d.booster.holds(lpn) {
			// Dirty in the booster: an SLC read off a striped plane.
			d.booster.hits++
			d.flushPendingReads()
			plane := d.rrPlane % len(d.planes)
			d.rrPlane++
			d.readOps = append(d.readOps, readOp{plane: plane, pool: len(d.cfg.Pools) - 1,
				payload: flash.SectorBytes, slc: true})
			haveLast = false
			continue
		}
		if d.booster != nil {
			d.booster.misses++
		}
		loc, ok := d.ftl.Lookup(lpn)
		if !ok {
			d.pendingLPNs = append(d.pendingLPNs, lpn)
			continue
		}
		if haveLast && loc == lastLoc {
			d.readOps[len(d.readOps)-1].payload += flash.SectorBytes
			continue
		}
		d.flushPendingReads()
		d.readOps = append(d.readOps, readOp{plane: int(loc.Plane), pool: int(loc.Pool), payload: flash.SectorBytes,
			loc: loc, mapped: true})
		lastLoc, haveLast = loc, true
	}
	d.flushPendingReads()

	perPlane := d.resetPlaneOps()
	finish := opsStart
	for _, op := range d.readOps {
		var rd int64
		if op.slc {
			rd = d.opCost(d.slcRead(d.cfg.Pools[op.pool].PageBytes), perPlane[op.plane])
		} else {
			rd = d.opCost(d.cfg.Timing.ReadPool(d.cfg.Pools[op.pool]), perPlane[op.plane])
		}
		perPlane[op.plane]++
		// Uncorrectable read: pay the retry ladder and read-scrub the block
		// into retirement, exactly as the eMMC model does — the shared
		// injector keeps the decision stream deterministic per seed.
		if op.mapped && d.inj.ReadUncorrectable(d.ftl.PoolAvgPE(op.pool)) {
			rec, rerr := d.ftl.RetireBlockAt(op.loc)
			extra := int64(d.inj.RecoveryReads())*d.cfg.Timing.ReadPool(d.cfg.Pools[op.pool]) +
				d.gcTime(rec, d.cfg.Pools[op.pool].PageBytes)
			rd += extra
			d.metrics.ReadFaults++
			d.metrics.RecoveryNs += extra
			if d.tel != nil {
				d.tel.readFaults.Inc()
			}
			d.tracer.Instant("ufs", "device", "read-recovery", opsStart)
			if rerr != nil {
				return 0, fmt.Errorf("ufs: read-scrub recovery: %w (after %w)", rerr, flash.ErrUncorrectable)
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

// Flush services a cache-flush barrier: it drains every command slot and
// in-flight flash operation, forces the booster's content to the main
// pools, and pays the flush cost.
func (d *Device) Flush(dispatchAt int64) (storage.Result, error) {
	start := dispatchAt
	waited := false
	for _, s := range d.slots {
		if s > start {
			start = s
			waited = true
		}
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
	for d.booster != nil {
		ns := d.destageOne()
		if ns <= 0 {
			break
		}
		start += ns
		d.metrics.DestageStallNs += ns
	}
	cost := d.cfg.FlushNs
	if cost <= 0 {
		cost = 100_000
	}
	finish := start + cost
	for i := range d.slots {
		if d.slots[i] < finish {
			d.slots[i] = finish
		}
	}
	d.lastEnd = finish
	d.metrics.Flushes++
	d.metrics.FlushNs += cost
	if d.tel != nil {
		d.tel.flushes.Inc()
	}
	d.tracer.Span("ufs", "device", "flush", serviceStart, finish)
	return storage.Result{ServiceStart: serviceStart, Finish: finish, Waited: waited}, nil
}
