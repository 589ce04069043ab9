package cliutil

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
)

// mapSource is a DeviceSource over sealed snapshots held in memory.
type mapSource map[string][]byte

func (m mapSource) OpenDevice(id string) ([]byte, error) {
	b, ok := m[id]
	if !ok {
		return nil, fmt.Errorf("no device %q", id)
	}
	return b, nil
}

// forkGolden is the JSON shape of a fork golden file: the aging replay's
// metrics and injector position, then the from_device replay's results
// exactly as emmcsim -json prints them.
type forkGolden struct {
	Aging           core.Metrics   `json:"aging"`
	AgingFaultDraws int64          `json:"aging_fault_draws"`
	Fork            []SchemeResult `json:"fork"`
}

// TestForkGolden pins cross-version restore behaviour: age Twitter for two
// sessions on a shrink-64 HPS device with faults on, seal it, fork the
// sealed bytes through the from_device path, and replay CallIn. The
// testdata files were captured once, by this test's scenario run on the
// build that still wrote version-1 seals, before the snapshot payload
// layout changed; they are never rewritten. A layout change that restores
// a different device — different block states, mapping order, free lists
// or injector position — fails here even though no decoder for the old
// layout exists any more.
func TestForkGolden(t *testing.T) {
	for _, backend := range []storage.Backend{storage.BackendEMMC, storage.BackendUFS} {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			t.Parallel()
			age := ReplaySpec{
				App: paper.Twitter, Scheme: "HPS", Shrink: 64, Sessions: 2,
				Faults: 2, FaultSeed: 7, DeviceSpec: DeviceSpec{Device: string(backend)},
			}
			if err := age.Validate(nil); err != nil {
				t.Fatal(err)
			}
			opt, err := age.DeviceOptions()
			if err != nil {
				t.Fatal(err)
			}
			dev, err := core.NewDevice(core.SchemeHPS, opt)
			if err != nil {
				t.Fatal(err)
			}
			p, err := age.Profile(nil)
			if err != nil {
				t.Fatal(err)
			}
			var got forkGolden
			got.Aging, err = core.ReplayStreamSinkContext(context.Background(), dev, core.SchemeHPS,
				age.PrepareStream(p.Stream(age.Seed)), nil, nil, nil)
			if err != nil {
				t.Fatalf("aging: %v", err)
			}
			got.AgingFaultDraws = dev.FaultDraws()
			sealed, _, err := storage.Seal(dev)
			if err != nil {
				t.Fatal(err)
			}

			fork := ReplaySpec{App: paper.CallIn, Scheme: "HPS", FromDevice: "aged"}
			fork.SetDeviceSource(mapSource{"aged": sealed})
			got.Fork, err = fork.Run(context.Background(), 1, nil, nil)
			if err != nil {
				t.Fatalf("fork replay: %v", err)
			}

			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(got); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_fork_"+string(backend)+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("fork replay drifted from %s\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
			}
		})
	}
}
