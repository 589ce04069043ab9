package core_test

import (
	"bytes"
	"testing"

	"emmcio/internal/core"
	"emmcio/internal/faults"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// fuzzSeedPayload ages a small device on backend and returns its sealed
// snapshot's payload: a shrunken HPS device with faults on, so the payload
// carries both page sizes, GC history and an injector position.
func fuzzSeedPayload(f testing.TB, backend storage.Backend) []byte {
	f.Helper()
	opt := core.CaseStudyOptions()
	opt.Backend = backend
	opt.ScaleBlocks = 64
	opt.ScalePages = 64
	opt.Faults = &faults.Config{Seed: 3, Rate: 2}
	dev, err := core.NewDevice(core.SchemeHPS, opt)
	if err != nil {
		f.Fatal(err)
	}
	if err := fuzzReplay(dev); err != nil {
		f.Fatal(err)
	}
	sealed, _, err := storage.Seal(dev)
	if err != nil {
		f.Fatal(err)
	}
	_, payload, err := storage.ReadSeal(bytes.NewReader(sealed), "seed")
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := core.RestoreSealed("seed", bytes.NewReader(sealed)); err != nil {
		f.Fatalf("seed does not restore: %v", err)
	}
	return payload
}

// fuzzReplay submits a short burst of overlapping writes and reads,
// starting an idle gap after the device's last activity.
func fuzzReplay(dev storage.Device) error {
	at := dev.LastActivity() + 1_000_000
	for i := 0; i < 400; i++ {
		req := trace.Request{Arrival: at, LBA: uint64(i%37) * 8, Size: 4096 << (i % 3), Op: trace.Write}
		if i%4 == 3 {
			req.Op = trace.Read
		}
		res, err := dev.Submit(req)
		if err != nil {
			return err
		}
		at = res.Finish
	}
	return nil
}

// FuzzRestoreSealed feeds mutated snapshot payloads, re-sealed so the
// digest passes, to core.RestoreSealed. Restore must never panic, and any
// device it does restore must be internally consistent and survive a
// short replay (a replay error is an outcome, a panic is not).
func FuzzRestoreSealed(f *testing.F) {
	f.Add(false, fuzzSeedPayload(f, storage.BackendEMMC))
	f.Add(true, fuzzSeedPayload(f, storage.BackendUFS))
	f.Fuzz(func(t *testing.T, ufs bool, payload []byte) {
		backend := storage.BackendEMMC
		if ufs {
			backend = storage.BackendUFS
		}
		sealed, _, err := storage.SealPayload(backend, payload)
		if err != nil {
			t.Fatal(err)
		}
		dev, _, err := core.RestoreSealed("fuzz", bytes.NewReader(sealed))
		if err != nil {
			return
		}
		if err := dev.(interface{ CheckConsistency() error }).CheckConsistency(); err != nil {
			t.Fatalf("restored an inconsistent device: %v", err)
		}
		_ = fuzzReplay(dev)
	})
}
