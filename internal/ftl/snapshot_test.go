package ftl

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"emmcio/internal/flash"
)

// agedFTL returns a two-plane, two-pool FTL with history: overwrites that
// forced GC on both page sizes, a half-dead 8 KB page, a partly written
// active block and one retired block.
func agedFTL(t *testing.T) *FTL {
	t.Helper()
	f, err := New(smallConfig(
		flash.PoolSpec{PageBytes: 8192, BlocksPerPlane: 6, PagesPerBlock: 4},
		flash.PoolSpec{PageBytes: 4096, BlocksPerPlane: 8, PagesPerBlock: 4},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		plane := i % 2
		if _, _, err := f.Write(plane, 0, []int64{int64(i % 11), int64(100 + i%5)}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Write(plane, 1, []int64{int64(200 + i%13)}); err != nil {
			t.Fatal(err)
		}
	}
	// A single-sector overwrite leaves an 8 KB page half dead.
	if _, _, err := f.Write(0, 1, []int64{100}); err != nil {
		t.Fatal(err)
	}
	loc, ok := f.Lookup(200)
	if !ok {
		t.Fatal("lpn 200 unmapped")
	}
	if _, err := f.RetireBlockAt(loc); err != nil {
		t.Fatal(err)
	}
	if f.Stats().GC.Erases == 0 || f.RetiredBlocks() != 1 {
		t.Fatalf("history too short: %+v", f.Stats())
	}
	return f
}

// cloneSnapshot deep-copies snapshot data through its gob form.
func cloneSnapshot(t *testing.T, s *SnapshotData) *SnapshotData {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var out SnapshotData
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestSnapshotRestoresBehaviour: a restored FTL re-exports the same state
// and then behaves exactly like the original, GC relocation order
// included.
func TestSnapshotRestoresBehaviour(t *testing.T) {
	orig := agedFTL(t)
	back, err := RestoreFromData(cloneSnapshot(t, orig.SnapshotData()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.SnapshotData(), back.SnapshotData()) {
		t.Fatal("restored FTL exports different state")
	}
	for i := 0; i < 200; i++ {
		for _, f := range []*FTL{orig, back} {
			if _, _, err := f.Write(i%2, 0, []int64{int64(i % 7), int64(300 + i%3)}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := f.Write(1-i%2, 1, []int64{int64(200 + i%17)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(orig.SnapshotData(), back.SnapshotData()) {
		t.Fatal("restored FTL diverged from the original under the same writes")
	}
}

// TestSnapshotSizeScalesWithWrittenPages: a fresh device of millions of
// pages archives in a few kilobytes, because unprogrammed pages are not
// stored.
func TestSnapshotSizeScalesWithWrittenPages(t *testing.T) {
	f, err := New(Config{
		Geometry:     flash.Geometry{Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 2},
		Pools:        []flash.PoolSpec{{PageBytes: 4096, BlocksPerPlane: 512, PagesPerBlock: 1024}},
		GCFreeBlocks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, _, err := f.Write(i%8, 0, []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// 4M pages; 1,000 written. Per-block fields cost a few bytes each.
	if buf.Len() > 64<<10 {
		t.Fatalf("snapshot of 1,000 written pages is %d bytes", buf.Len())
	}
	back, err := RestoreSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 1000; i++ {
		if a, _ := f.Lookup(i); a != mustLookup(t, back, i) {
			t.Fatalf("lpn %d moved on restore", i)
		}
	}
}

func mustLookup(t *testing.T, f *FTL, lpn int64) Loc {
	t.Helper()
	loc, ok := f.Lookup(lpn)
	if !ok {
		t.Fatalf("lpn %d unmapped", lpn)
	}
	return loc
}

// TestRestoreRejectsCorruptState corrupts one field of a valid snapshot
// per case. Each must be refused with an error; none may panic or restore.
func TestRestoreRejectsCorruptState(t *testing.T) {
	base := agedFTL(t).SnapshotData()
	// Find blocks by role in the flat per-block slices.
	liveBlock, liveByte, retiredBlock := -1, 0, -1
	pos := 0
	for b, wp := range base.WritePtr {
		for i := 0; i < int(wp); i++ {
			if base.Live[pos+i] > 0 && liveBlock < 0 {
				liveBlock, liveByte = b, pos+i
			}
		}
		pos += int(wp)
	}
	for b, r := range base.Retired {
		if r {
			retiredBlock = b
			break
		}
	}
	if liveBlock < 0 || retiredBlock < 0 || len(base.Free) < 2 || base.FreeLen[0] < 2 {
		t.Fatalf("fixture lacks a live block, a retired block or a free list: %+v", base)
	}
	// A programmed block of plane-pool 0 that is neither free nor active.
	programmed := -1
	for b := 0; b < base.Config.Pools[0].BlocksPerPlane; b++ {
		if base.WritePtr[b] > 0 && int32(b) != base.Active[0] {
			programmed = b
			break
		}
	}
	if programmed < 0 {
		t.Fatal("fixture has no programmed inactive block in plane-pool 0")
	}

	cases := []struct {
		name    string
		corrupt func(s *SnapshotData)
		want    string
	}{
		{"write pointer negative", func(s *SnapshotData) { s.WritePtr[liveBlock] = -1 }, "write pointer"},
		{"write pointer past block", func(s *SnapshotData) { s.WritePtr[liveBlock] = 5 }, "write pointer"},
		{"page states short", func(s *SnapshotData) { s.Live = s.Live[:len(s.Live)-1] }, "page states"},
		{"page states long", func(s *SnapshotData) { s.Live = append(s.Live, 0) }, "page states"},
		{"live count past page", func(s *SnapshotData) { s.Live[liveByte] = 3 }, "live sectors"},
		{"reverse map short", func(s *SnapshotData) { s.LPNs = s.LPNs[:len(s.LPNs)-1] }, "reverse map"},
		{"reverse map long", func(s *SnapshotData) { s.LPNs = append(s.LPNs, 9999) }, "reverse-map entries"},
		{"lpn mapped twice", func(s *SnapshotData) { s.LPNs[1] = s.LPNs[0] }, "twice"},
		{"live sectors on retired block", func(s *SnapshotData) { s.Retired[liveBlock] = true }, "retired"},
		{"negative erase count", func(s *SnapshotData) { s.Erases[liveBlock] = -1 }, "erase count"},
		{"active below -1", func(s *SnapshotData) { s.Active[0] = -2 }, "active block"},
		{"active past pool", func(s *SnapshotData) { s.Active[0] = 6 }, "active block"},
		{"active on free list", func(s *SnapshotData) { s.Active[0] = s.Free[0] }, "free list"},
		{"free block out of range", func(s *SnapshotData) { s.Free[0] = 6 }, "out of range"},
		{"free block negative", func(s *SnapshotData) { s.Free[0] = -1 }, "out of range"},
		{"free block twice", func(s *SnapshotData) { s.Free[1] = s.Free[0] }, "twice"},
		{"free block programmed", func(s *SnapshotData) { s.Free[0] = int32(programmed) }, "programmed pages"},
		{"retired block free", func(s *SnapshotData) { s.Retired[int(s.Free[0])] = true }, "retired"},
		{"free length negative", func(s *SnapshotData) { s.FreeLen[0] = -1 }, "free list length"},
		{"free length past entries", func(s *SnapshotData) { s.FreeLen[len(s.FreeLen)-1]++ }, "free list length"},
		{"free entries left over", func(s *SnapshotData) { s.FreeLen[len(s.FreeLen)-1]-- }, "free-list entries"},
		{"block entries short", func(s *SnapshotData) { s.WritePtr = s.WritePtr[:len(s.WritePtr)-1] }, "block entries"},
		{"erase entries short", func(s *SnapshotData) { s.Erases = s.Erases[1:] }, "block entries"},
		{"retired entries long", func(s *SnapshotData) { s.Retired = append(s.Retired, false) }, "block entries"},
		{"plane-pool entries short", func(s *SnapshotData) { s.Active = s.Active[:1] }, "plane-pool entries"},
		{"pool erase counters short", func(s *SnapshotData) { s.PoolErases = s.PoolErases[:1] }, "erase counters"},
		{"config invalid", func(s *SnapshotData) { s.Config.GCFreeBlocks = 0 }, "config"},
		{"device past page limit", func(s *SnapshotData) {
			s.Config.Pools[1].BlocksPerPlane = 1 << 16
			s.Config.Pools[1].PagesPerBlock = 1 << 12
		}, "pages"},
		{"device past block limit", func(s *SnapshotData) { s.Config.Pools[1].BlocksPerPlane = 1 << 20 }, "blocks"},
		{"geometry past plane limit", func(s *SnapshotData) { s.Config.Geometry.Channels = 1 << 62 }, "planes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := cloneSnapshot(t, base)
			c.corrupt(s)
			f, err := RestoreFromData(s)
			if err == nil {
				t.Fatalf("corrupt snapshot restored (consistency: %v)", f.CheckConsistency())
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
