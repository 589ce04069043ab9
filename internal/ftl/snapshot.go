package ftl

import (
	"encoding/gob"
	"fmt"
	"io"

	"emmcio/internal/flash"
)

// Snapshot serialization: the FTL's full state (mapping, block states, free
// lists, statistics) in one gob stream, so an aged device can be archived
// and resumed instead of replaying its history. The configuration is
// embedded and checked on restore.
//
// The archive holds only written state. Pages past a block's write pointer
// hold nothing and are not stored, and the forward map is the exact inverse
// of the reverse map, so it is rebuilt rather than stored. Every field is a
// flat slice of primitives, which gob encodes and decodes in bulk, and the
// encoding is canonical: device snapshots are content-addressed, so equal
// state must encode to equal bytes.

// SnapshotData is the serializable state of the whole FTL; callers embed it
// in their own snapshot structures so one gob stream carries everything.
// Blocks are numbered plane by plane, pool by pool, block by block; plane-
// pools plane by plane, pool by pool.
type SnapshotData struct {
	Config Config
	// WritePtr, Erases and Retired hold one entry per block: the pages
	// programmed since its last erase, its erase count, and whether it is
	// a grown bad block.
	WritePtr []int32
	Erases   []int32
	Retired  []bool
	// Live holds the live-sector count of every programmed page, block
	// after block: WritePtr[b] bytes for block b.
	Live []byte
	// LPNs is the reverse map. Every page with live sectors owns as many
	// consecutive entries as it has live sectors, in the order of Live, and
	// lists the LPNs it holds in the FTL's own order — GC relocates them in
	// that order, so it is part of the device's behaviour.
	LPNs []int64
	// Active and FreeLen hold one entry per plane-pool: the block accepting
	// programs (-1 for none) and the free list's length. Free concatenates
	// the free lists, each in allocation order.
	Active  []int32
	FreeLen []int32
	Free    []int32

	Stats      Stats
	PoolErases []int64
}

// Restore limits. A snapshot is untrusted input whose configuration alone
// sizes the allocation, so RestoreFromData refuses larger devices before
// allocating anything. Both are far above the paper's 32 GB case-study
// device, 6.3M pages in 6,144 blocks.
const (
	// maxRestorePages caps planes × pools × blocks × pages.
	maxRestorePages = 1 << 26
	// maxRestoreBlocks caps planes × pools × blocks.
	maxRestoreBlocks = 1 << 20
)

// SnapshotData exports the FTL state. The result shares nothing with f.
func (f *FTL) SnapshotData() *SnapshotData {
	snap := &SnapshotData{
		Config:     f.cfg,
		Stats:      f.stats,
		PoolErases: append([]int64(nil), f.poolErases...),
	}
	for pi := range f.planes {
		for qi := range f.planes[pi].pools {
			ps := &f.planes[pi].pools[qi]
			snap.Active = append(snap.Active, ps.active)
			snap.FreeLen = append(snap.FreeLen, int32(len(ps.free)))
			snap.Free = append(snap.Free, ps.free...)
			for bi := range ps.blocks {
				blk := &ps.blocks[bi]
				snap.WritePtr = append(snap.WritePtr, int32(blk.NextFreeCount()))
				snap.Erases = append(snap.Erases, int32(blk.EraseCount()))
				snap.Retired = append(snap.Retired, blk.Retired())
				snap.Live = blk.AppendWritten(snap.Live)
				for page := 0; page < blk.NextFreeCount(); page++ {
					if blk.PageLive(page) > 0 {
						loc := Loc{Plane: int32(pi), Pool: int32(qi), Block: int32(bi), Page: int32(page)}
						snap.LPNs = append(snap.LPNs, f.rev[loc.pack()]...)
					}
				}
			}
		}
	}
	return snap
}

// Snapshot writes the FTL state to w as one gob message.
func (f *FTL) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f.SnapshotData())
}

// RestoreSnapshot rebuilds an FTL from a stream written by Snapshot.
func RestoreSnapshot(r io.Reader) (*FTL, error) {
	var snap SnapshotData
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("ftl: decoding snapshot: %w", err)
	}
	return RestoreFromData(&snap)
}

// restoreSize returns the device's plane and block totals, refusing a
// device beyond the restore limits. Config.Validate has bounded each
// factor; the sums are checked against their limits before they are
// formed, so nothing overflows.
func restoreSize(cfg Config) (planes, blocks int, err error) {
	planes = cfg.Geometry.Planes()
	pages := 0
	for _, p := range cfg.Pools {
		n := planes * p.BlocksPerPlane
		if n > maxRestoreBlocks-blocks {
			return 0, 0, fmt.Errorf("ftl: snapshot device exceeds %d blocks", maxRestoreBlocks)
		}
		if p.PagesPerBlock > (maxRestorePages-pages)/n {
			return 0, 0, fmt.Errorf("ftl: snapshot device exceeds %d pages", maxRestorePages)
		}
		blocks += n
		pages += n * p.PagesPerBlock
	}
	return planes, blocks, nil
}

// RestoreFromData rebuilds an FTL from exported snapshot data, which it
// validates in full first: a corrupt snapshot is an error, never a panic
// later. The FTL takes ownership of snap's slices.
func RestoreFromData(snap *SnapshotData) (*FTL, error) {
	cfg := snap.Config
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ftl: snapshot config: %w", err)
	}
	planes, blocks, err := restoreSize(cfg)
	if err != nil {
		return nil, err
	}
	planePools := planes * len(cfg.Pools)
	switch {
	case len(snap.WritePtr) != blocks || len(snap.Erases) != blocks || len(snap.Retired) != blocks:
		return nil, fmt.Errorf("ftl: snapshot has %d/%d/%d block entries for %d blocks",
			len(snap.WritePtr), len(snap.Erases), len(snap.Retired), blocks)
	case len(snap.Active) != planePools || len(snap.FreeLen) != planePools:
		return nil, fmt.Errorf("ftl: snapshot has %d/%d plane-pool entries for %d plane-pools",
			len(snap.Active), len(snap.FreeLen), planePools)
	case len(snap.PoolErases) != len(cfg.Pools):
		return nil, fmt.Errorf("ftl: snapshot has %d pool erase counters for %d pools",
			len(snap.PoolErases), len(cfg.Pools))
	}

	livePages := 0 // sizes the reverse map; validated below
	for _, c := range snap.Live {
		if c != 0 {
			livePages++
		}
	}
	f := &FTL{
		cfg:        cfg,
		planes:     make([]planeState, planes),
		fwd:        make(map[int64]Loc, len(snap.LPNs)),
		rev:        make(map[uint64][]int64, livePages),
		stats:      snap.Stats,
		poolErases: snap.PoolErases,
	}
	var bi, qi, live, lpn, free int // cursors into the flat slices
	var onFree []bool               // scratch for checkPoolLists
	for pi := range f.planes {
		f.planes[pi].pools = make([]poolState, len(cfg.Pools))
		for pool, spec := range cfg.Pools {
			bad := func(format string, args ...any) error {
				return fmt.Errorf("ftl: snapshot plane %d pool %d: "+format, append([]any{pi, pool}, args...)...)
			}
			ps := &f.planes[pi].pools[pool]
			ps.spec = spec
			ps.blocks = flash.NewBlocks(spec.BlocksPerPlane, spec.PagesPerBlock)
			ps.active = snap.Active[qi]
			if ps.active < -1 || ps.active >= int32(spec.BlocksPerPlane) {
				return nil, bad("active block %d out of range", ps.active)
			}
			n := int(snap.FreeLen[qi])
			if n < 0 || n > spec.BlocksPerPlane || n > len(snap.Free)-free {
				return nil, bad("free list length %d out of range", n)
			}
			ps.free = snap.Free[free : free+n : free+n]
			free += n
			qi++

			spp := spec.SectorsPerPage()
			for b := range ps.blocks {
				wp, erases, retired := int(snap.WritePtr[bi]), snap.Erases[bi], snap.Retired[bi]
				bi++
				if wp < 0 || wp > spec.PagesPerBlock {
					return nil, bad("block %d: write pointer %d outside [0, %d]", b, wp, spec.PagesPerBlock)
				}
				if erases < 0 {
					return nil, bad("block %d: negative erase count %d", b, erases)
				}
				if wp > len(snap.Live)-live {
					return nil, bad("block %d: page states truncated", b)
				}
				pagesLive := snap.Live[live : live+wp]
				live += wp
				for page, c := range pagesLive {
					if int(c) > spp {
						return nil, bad("block %d page %d: %d live sectors on a %d-sector page", b, page, c, spp)
					}
					if c == 0 {
						continue
					}
					if retired {
						return nil, bad("retired block %d holds live sectors", b)
					}
					if int(c) > len(snap.LPNs)-lpn {
						return nil, bad("block %d page %d: reverse map truncated", b, page)
					}
					loc := Loc{Plane: int32(pi), Pool: int32(pool), Block: int32(b), Page: int32(page)}
					lpns := snap.LPNs[lpn : lpn+int(c) : lpn+int(c)]
					lpn += int(c)
					for _, l := range lpns {
						mapped := len(f.fwd)
						if f.fwd[l] = loc; len(f.fwd) == mapped {
							return nil, fmt.Errorf("ftl: snapshot maps lpn %d twice", l)
						}
					}
					f.rev[loc.pack()] = lpns
				}
				ps.blocks[b].Load(pagesLive, int(erases), retired)
				if retired {
					ps.retired++
				}
			}
			if len(onFree) < len(ps.blocks) {
				onFree = make([]bool, len(ps.blocks))
			}
			if err := checkPoolLists(ps, onFree[:len(ps.blocks)]); err != nil {
				return nil, bad("%w", err)
			}
		}
	}
	switch {
	case live != len(snap.Live):
		return nil, fmt.Errorf("ftl: snapshot has %d page states for %d programmed pages", len(snap.Live), live)
	case lpn != len(snap.LPNs):
		return nil, fmt.Errorf("ftl: snapshot has %d reverse-map entries for %d live sectors", len(snap.LPNs), lpn)
	case free != len(snap.Free):
		return nil, fmt.Errorf("ftl: snapshot has %d free-list entries, lengths sum to %d", len(snap.Free), free)
	}
	// The loop builds the forward and reverse maps as exact inverses that
	// agree with every page's live count, and derives the retired counters;
	// the rest of CheckConsistency's invariants, on retired blocks, are
	// checked above.
	return f, nil
}

// checkPoolLists verifies a restored plane-pool's free list and active
// block: every free entry names a distinct erased block in service other
// than the active one, and the active block is in service. onFree is
// scratch, one entry per block.
func checkPoolLists(ps *poolState, onFree []bool) error {
	clear(onFree)
	if ps.active >= 0 && ps.blocks[ps.active].Retired() {
		return fmt.Errorf("retired block %d is the active block", ps.active)
	}
	for _, b := range ps.free {
		switch {
		case b < 0 || int(b) >= len(ps.blocks):
			return fmt.Errorf("free block %d out of range", b)
		case onFree[b]:
			return fmt.Errorf("block %d is on the free list twice", b)
		case b == ps.active:
			return fmt.Errorf("active block %d is on the free list", b)
		case ps.blocks[b].Retired():
			return fmt.Errorf("retired block %d is on the free list", b)
		case ps.blocks[b].NextFreeCount() != 0:
			return fmt.Errorf("free block %d has %d programmed pages", b, ps.blocks[b].NextFreeCount())
		}
		onFree[b] = true
	}
	return nil
}
