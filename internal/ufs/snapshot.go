package ufs

import (
	"encoding/gob"
	"fmt"
	"io"
	"reflect"

	"emmcio/internal/faults"
	"emmcio/internal/ftl"
	"emmcio/internal/sim"
	"emmcio/internal/storage"
)

// deviceSnapshot is the gob layout of a device's dynamic state. Unlike the
// eMMC model's RAM buffer (a cache that restarts cold), the booster holds
// the only copy of its dirty sectors, so its queue is part of the snapshot:
// a restored device still answers booster reads at SLC latency and still
// owes the same migrations.
type deviceSnapshot struct {
	Config      Config
	FTL         *ftl.SnapshotData
	Slots       []int64
	LastEnd     int64
	RRPlane     int
	Metrics     storage.Metrics
	ChannelFree []int64
	ChannelBusy []int64
	PlaneFree   []int64
	PlaneBusy   []int64
	// Booster state: the pending-migration queue in order, plus hit
	// accounting. Chunk i migrates BoosterLens[i] consecutive LPNs of
	// BoosterLPNs to pool BoosterPools[i]. The dirty-sector index is
	// rebuilt from the queue.
	BoosterPools  []byte
	BoosterLens   []byte
	BoosterLPNs   []int64
	BoosterHits   int64
	BoosterMisses int64
	// FaultState archives the injector's generator state so a restored
	// device resumes the exact fault sequence; FaultDraws is its position
	// in the decision stream, kept for reporting.
	FaultState [4]uint64
	FaultDraws int64
}

// Snapshot archives the device (configuration, FTL state, command-slot and
// resource timing cursors, booster content, metrics) to w, so an aged
// device can be resumed later without replaying its history.
func (d *Device) Snapshot(w io.Writer) error {
	snap := deviceSnapshot{
		Config:     d.cfg,
		FTL:        d.ftl.SnapshotData(),
		Slots:      append([]int64(nil), d.slots...),
		LastEnd:    d.lastEnd,
		RRPlane:    d.rrPlane,
		Metrics:    d.metrics,
		FaultState: d.inj.State(),
		FaultDraws: d.inj.Draws(),
	}
	if d.booster != nil {
		snap.BoosterHits = d.booster.hits
		snap.BoosterMisses = d.booster.misses
		for _, c := range d.booster.pendingChunks() {
			snap.BoosterPools = append(snap.BoosterPools, byte(c.pool))
			snap.BoosterLens = append(snap.BoosterLens, byte(len(c.lpns)))
			snap.BoosterLPNs = append(snap.BoosterLPNs, c.lpns...)
		}
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
		return fmt.Errorf("ufs: encoding snapshot: %w", err)
	}
	return nil
}

// RestoreSnapshot rebuilds a device from a Snapshot stream.
func RestoreSnapshot(r io.Reader) (*Device, error) {
	var snap deviceSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ufs: decoding snapshot: %w", err)
	}
	if snap.Config.Queues == 0 {
		snap.Config.Queues = 1
	}
	if snap.Config.QueueDepth == 0 {
		snap.Config.QueueDepth = 32
	}
	if err := snap.Config.Validate(); err != nil {
		return nil, fmt.Errorf("ufs: snapshot config: %w", err)
	}
	if snap.FTL == nil {
		return nil, fmt.Errorf("ufs: snapshot missing FTL state")
	}
	if !reflect.DeepEqual(snap.FTL.Config, snap.Config.ftlConfig()) {
		return nil, fmt.Errorf("ufs: snapshot FTL configuration disagrees with the device configuration")
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
		cfg:      snap.Config,
		ftl:      f,
		inj:      inj,
		channels: make([]sim.Resource, snap.Config.Geometry.Channels),
		planes:   make([]sim.Resource, snap.Config.Geometry.Planes()),
		slots:    make([]int64, snap.Config.slots()),
		booster:  newBooster(snap.Config.WriteBoosterBytes),
		lastEnd:  snap.LastEnd,
		rrPlane:  snap.RRPlane,
		metrics:  snap.Metrics,
	}
	if len(snap.Slots) != len(d.slots) {
		return nil, fmt.Errorf("ufs: snapshot slot count mismatch")
	}
	copy(d.slots, snap.Slots)
	if len(snap.ChannelFree) != len(d.channels) || len(snap.ChannelBusy) != len(d.channels) ||
		len(snap.PlaneFree) != len(d.planes) || len(snap.PlaneBusy) != len(d.planes) {
		return nil, fmt.Errorf("ufs: snapshot resource counts mismatch")
	}
	if snap.RRPlane < 0 {
		return nil, fmt.Errorf("ufs: snapshot plane cursor %d is negative", snap.RRPlane)
	}
	for _, ts := range [][]int64{{snap.LastEnd}, snap.Slots, snap.ChannelFree, snap.ChannelBusy, snap.PlaneFree, snap.PlaneBusy} {
		if !sim.ValidRestoredTimes(ts) {
			return nil, fmt.Errorf("ufs: snapshot clock value outside [0, %d]", sim.MaxRestoredTime)
		}
	}
	for i := range d.channels {
		d.channels[i].SetState(snap.ChannelFree[i], snap.ChannelBusy[i])
	}
	for i := range d.planes {
		d.planes[i].SetState(snap.PlaneFree[i], snap.PlaneBusy[i])
	}
	if len(snap.BoosterPools) != len(snap.BoosterLens) {
		return nil, fmt.Errorf("ufs: snapshot has %d booster chunk pools for %d lengths", len(snap.BoosterPools), len(snap.BoosterLens))
	}
	if (len(snap.BoosterLens) > 0 || len(snap.BoosterLPNs) > 0) && d.booster == nil {
		return nil, fmt.Errorf("ufs: snapshot has booster content but no booster capacity")
	}
	if d.booster != nil {
		d.booster.hits = snap.BoosterHits
		d.booster.misses = snap.BoosterMisses
		lpns := snap.BoosterLPNs
		for i, n := range snap.BoosterLens {
			pool := int(snap.BoosterPools[i])
			if pool >= len(d.cfg.Pools) || n == 0 || int(n) > d.cfg.Pools[pool].SectorsPerPage() || int(n) > len(lpns) {
				return nil, fmt.Errorf("ufs: snapshot booster chunk %d holds %d sectors for pool %d", i, n, pool)
			}
			d.booster.add(pool, lpns[:n])
			lpns = lpns[n:]
		}
		if len(lpns) != 0 {
			return nil, fmt.Errorf("ufs: snapshot has %d booster sectors past the last chunk", len(lpns))
		}
	}
	return d, nil
}
