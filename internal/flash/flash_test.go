package flash

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGeometryPlanes(t *testing.T) {
	g := Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 2}
	if g.Planes() != 8 {
		t.Fatalf("Planes() = %d, want 8 (Table V)", g.Planes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryChannelStriping(t *testing.T) {
	g := Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 2}
	ch0, ch1 := 0, 0
	for p := 0; p < g.Planes(); p++ {
		switch g.ChannelOf(p) {
		case 0:
			ch0++
		case 1:
			ch1++
		default:
			t.Fatalf("plane %d mapped to invalid channel", p)
		}
	}
	if ch0 != 4 || ch1 != 4 {
		t.Fatalf("channel balance %d/%d, want 4/4", ch0, ch1)
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := (Geometry{}).Validate(); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

func TestPoolSpec(t *testing.T) {
	p := PoolSpec{PageBytes: 8192, BlocksPerPlane: 512, PagesPerBlock: 1024}
	if p.SectorsPerPage() != 2 {
		t.Fatalf("SectorsPerPage = %d, want 2", p.SectorsPerPage())
	}
	if p.BytesPerPlane() != 512*1024*8192 {
		t.Fatalf("BytesPerPlane = %d", p.BytesPerPlane())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := PoolSpec{PageBytes: 5000, BlocksPerPlane: 1, PagesPerBlock: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("unaligned page size accepted")
	}
	huge := PoolSpec{PageBytes: 128 * SectorBytes, BlocksPerPlane: 1, PagesPerBlock: 1}
	if err := huge.Validate(); err == nil {
		t.Fatal("a page of more sectors than a block can count accepted")
	}
}

func testTiming() Timing {
	return Timing{
		PerPage: map[int]OpTiming{
			4096: {ReadNs: 160_000, ProgramNs: 1_385_000},
			8192: {ReadNs: 244_000, ProgramNs: 1_491_000},
		},
		EraseNs:           3_800_000,
		TransferNsPerByte: 5,
		CmdOverheadNs:     25_000,
		RequestOverheadNs: 100_000,
		PipelineFactor:    0.65,
	}
}

func TestTimingLookups(t *testing.T) {
	tm := testTiming()
	if tm.Read(4096) != 160_000 || tm.Program(8192) != 1_491_000 {
		t.Fatal("timing lookup mismatch with Table V")
	}
	if got := tm.Transfer(4096); got != 25_000+4096*5 {
		t.Fatalf("Transfer(4096) = %d", got)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTimingPanicsOnUnknownPageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown page size did not panic")
		}
	}()
	testTiming().Read(16384)
}

// newBlock returns one erased block of the given page count.
func newBlock(pages int) *Block { return &NewBlocks(1, pages)[0] }

func TestBlockLifecycle(t *testing.T) {
	b := newBlock(4)
	if b.Full() || b.NextFreeCount() != 0 {
		t.Fatal("fresh block should be empty")
	}
	p0 := b.Program(2)
	p1 := b.Program(1)
	if p0 != 0 || p1 != 1 {
		t.Fatalf("pages programmed at %d,%d; want 0,1", p0, p1)
	}
	if b.LiveSectors() != 3 || b.PageLive(0) != 2 || b.PageLive(1) != 1 {
		t.Fatalf("live sectors %d pages %d/%d, want 3 = 2+1", b.LiveSectors(), b.PageLive(0), b.PageLive(1))
	}
	b.InvalidateSector(0)
	if b.LiveSectors() != 2 || b.PageLive(0) != 1 {
		t.Fatal("invalidation bookkeeping wrong")
	}
	b.InvalidateSector(0)
	if b.PageLive(0) != 0 || b.PageLive(1) != 1 || b.PageLive(2) != 0 {
		t.Fatalf("page live counts %d/%d/%d, want 0/1/0", b.PageLive(0), b.PageLive(1), b.PageLive(2))
	}
}

func TestBlockProgramsInOrder(t *testing.T) {
	b := newBlock(3)
	for want := 0; want < 3; want++ {
		if got := b.Program(1); got != want {
			t.Fatalf("Program returned page %d, want %d (in-order constraint)", got, want)
		}
	}
	if !b.Full() || b.NextFreeCount() != 3 {
		t.Fatal("block should be full")
	}
}

func TestBlockEraseResetsState(t *testing.T) {
	b := newBlock(2)
	b.Program(1)
	b.InvalidateSector(0)
	b.Program(0) // stale page, e.g. wasted half of an 8K page
	b.Erase()
	if b.EraseCount() != 1 {
		t.Fatalf("EraseCount = %d, want 1", b.EraseCount())
	}
	if b.Full() || b.LiveSectors() != 0 || b.NextFreeCount() != 0 {
		t.Fatal("erase did not reset block")
	}
}

func TestEraseWithLiveDataPanics(t *testing.T) {
	b := newBlock(2)
	b.Program(1)
	defer func() {
		if recover() == nil {
			t.Fatal("erasing live data did not panic")
		}
	}()
	b.Erase()
}

func TestProgramFullBlockPanics(t *testing.T) {
	b := newBlock(1)
	b.Program(1)
	defer func() {
		if recover() == nil {
			t.Fatal("programming a full block did not panic")
		}
	}()
	b.Program(1)
}

func TestInvalidateFreePagePanics(t *testing.T) {
	b := newBlock(1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalidating a free page did not panic")
		}
	}()
	b.InvalidateSector(0)
}

// Property: live sector accounting stays consistent under random
// program/invalidate sequences.
func TestBlockAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		b := newBlock(64)
		modelLive := 0
		for _, op := range ops {
			if op%2 == 0 && !b.Full() {
				n := int(op/2) % 3
				b.Program(n)
				modelLive += n
			} else if modelLive > 0 {
				// find a page with live sectors
				for i := 0; i < b.Pages(); i++ {
					if b.PageLive(i) > 0 {
						b.InvalidateSector(i)
						modelLive--
						break
					}
				}
			}
			if b.LiveSectors() != modelLive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Blocks carved from one slab must not share pages: filling one leaves its
// neighbours erased, and an erased page reads 0 again after reuse.
func TestNewBlocksAreIndependent(t *testing.T) {
	blocks := NewBlocks(3, 2)
	blocks[1].Program(1)
	blocks[1].Program(1)
	for _, i := range []int{0, 2} {
		if blocks[i].NextFreeCount() != 0 || blocks[i].PageLive(0) != 0 || blocks[i].PageLive(1) != 0 {
			t.Fatalf("programming block 1 touched block %d", i)
		}
	}
	blocks[1].InvalidateSector(0)
	blocks[1].InvalidateSector(1)
	blocks[1].Erase()
	blocks[1].Program(0)
	if blocks[1].PageLive(0) != 0 || blocks[1].PageLive(1) != 0 || blocks[1].LiveSectors() != 0 {
		t.Fatal("erased block kept stale live counts")
	}
}

func TestBlockSnapshotRoundTrip(t *testing.T) {
	b := newBlock(4)
	b.Program(2)
	b.Program(1)
	b.Burn()
	b.InvalidateSector(0)
	written := b.AppendWritten(nil)
	if !bytes.Equal(written, []byte{1, 1, 0}) {
		t.Fatalf("AppendWritten = %v, want [1 1 0]", written)
	}
	c := newBlock(4)
	c.Load(written, 5, false)
	if c.NextFreeCount() != 3 || c.LiveSectors() != 2 || c.EraseCount() != 5 || c.Retired() {
		t.Fatalf("loaded block: ptr %d live %d erases %d retired %v",
			c.NextFreeCount(), c.LiveSectors(), c.EraseCount(), c.Retired())
	}
	for i := 0; i < 4; i++ {
		if c.PageLive(i) != b.PageLive(i) {
			t.Fatalf("page %d: loaded %d live, original %d", i, c.PageLive(i), b.PageLive(i))
		}
	}
	r := newBlock(4)
	r.Load(nil, 1, true)
	if !r.Retired() {
		t.Fatal("retired flag lost")
	}
}
