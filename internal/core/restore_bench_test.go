package core_test

import (
	"bytes"
	"context"
	"testing"

	"emmcio/internal/cliutil"
	"emmcio/internal/core"
	"emmcio/internal/paper"
	"emmcio/internal/storage"
)

// Device construction and restore at full size: the 32 GB HPS case-study
// device every fresh job builds and every from_device fork restores. Both
// should cost in proportion to the pages written, not to capacity.

func benchmarkNewDevice(b *testing.B, backend storage.Backend) {
	opt := core.CaseStudyOptions()
	opt.Backend = backend
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewDevice(core.SchemeHPS, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewDeviceEMMC(b *testing.B) { benchmarkNewDevice(b, storage.BackendEMMC) }
func BenchmarkNewDeviceUFS(b *testing.B)  { benchmarkNewDevice(b, storage.BackendUFS) }

// agedSeal ages a full-size HPS device the way an emmcd age job does —
// Twitter, two sessions, the default seed — and seals it.
func agedSeal(b *testing.B, backend storage.Backend) []byte {
	b.Helper()
	spec := cliutil.ReplaySpec{App: paper.Twitter, Scheme: "HPS", Sessions: 2,
		DeviceSpec: cliutil.DeviceSpec{Device: string(backend)}}
	if err := spec.Validate(nil); err != nil {
		b.Fatal(err)
	}
	opt, err := spec.DeviceOptions()
	if err != nil {
		b.Fatal(err)
	}
	dev, err := core.NewDevice(core.SchemeHPS, opt)
	if err != nil {
		b.Fatal(err)
	}
	p, err := spec.Profile(nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.ReplayStreamSinkContext(context.Background(), dev, core.SchemeHPS,
		spec.PrepareStream(p.Stream(spec.Seed)), nil, nil, nil); err != nil {
		b.Fatal(err)
	}
	sealed, _, err := storage.Seal(dev)
	if err != nil {
		b.Fatal(err)
	}
	return sealed
}

func benchmarkRestoreSealed(b *testing.B, backend storage.Backend) {
	sealed := agedSeal(b, backend)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RestoreSealed("bench", bytes.NewReader(sealed)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(sealed)), "seal_bytes")
}

// BenchmarkRestoreSealedEMMC restores the aged eMMC device jobs-mix forks.
func BenchmarkRestoreSealedEMMC(b *testing.B) { benchmarkRestoreSealed(b, storage.BackendEMMC) }

// BenchmarkRestoreSealedUFS restores the same aging on UFS, whose booster
// queue and mapped pages ride in the payload too.
func BenchmarkRestoreSealedUFS(b *testing.B) { benchmarkRestoreSealed(b, storage.BackendUFS) }
