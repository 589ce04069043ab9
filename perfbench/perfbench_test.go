package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"emmcio/internal/core"
	"emmcio/internal/storage"
	"emmcio/internal/trace"
)

// testRun runs one workload as the command would, with a measured phase of
// d (a phase always completes at least one window or one job).
func testRun(t *testing.T, workload string, seed uint64, d time.Duration, traced bool) *run {
	t.Helper()
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  d,
		traced:   traced,
		workdir:  t.TempDir(),
		metrics:  map[string]float64{},
		info:     map[string]any{},
	}
	if traced {
		r.spans = newSpanLog()
	}
	if err := workloads[workload](r); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(r.problems) > 0 || r.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", workload, r.failed, r.attempted, r.problems)
	}
	return r
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"aged-replay", "read-ufs", "jobs-mix"}) || len(workloads) != len(names) {
		t.Errorf("BENCHMARK.json workloads %v do not match the benchmark's %v", names, workloadNames())
	}
}

// TestSeedDeterminesInputs: a seed fixes the simulated results (sim_digest)
// and another seed changes the inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range []string{"aged-replay", "read-ufs", "jobs-mix"} {
		t.Run(w, func(t *testing.T) {
			a := testRun(t, w, 7, time.Nanosecond, false)
			b := testRun(t, w, 7, time.Nanosecond, false)
			c := testRun(t, w, 8, time.Nanosecond, false)
			if a.info["sim_digest"] != b.info["sim_digest"] {
				t.Errorf("seed 7 gave sim_digest %v, then %v", a.info["sim_digest"], b.info["sim_digest"])
			}
			if reflect.DeepEqual(a.info["device"], c.info["device"]) || a.info["sim_digest"] == c.info["sim_digest"] {
				t.Errorf("seeds 7 and 8 gave the same set-up device %v and digest %v", a.info["device"], a.info["sim_digest"])
			}
		})
	}
}

// TestWrappersAreTransparent replays one window on two forks of the aged
// device, one through the layer wrappers, and compares every request's
// timing and the final metrics bit for bit.
func TestWrappersAreTransparent(t *testing.T) {
	b, err := agedSetup(3, t.TempDir(), &setupProbes{})
	if err != nil {
		t.Fatal(err)
	}
	replay := func(traced bool) ([]trace.Request, core.Metrics) {
		sealed, err := b.store.OpenDevice(b.windows[0].id)
		if err != nil {
			t.Fatal(err)
		}
		dev, _, err := core.RestoreSealed(b.windows[0].id, bytes.NewReader(sealed))
		if err != nil {
			t.Fatal(err)
		}
		st, release, err := b.windows[0].open(dev.LastActivity())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		var d storage.Device = dev
		if traced {
			seq := new(int64)
			d = &tracedDevice{Device: dev, layer: "emmc", sums: &deviceSums{}, spans: newSpanLog(), seq: seq}
			st = &tracedStream{Stream: st, layer: "workload", spans: newSpanLog(), seq: seq}
		}
		var reqs []trace.Request
		m, err := core.ReplayStreamSink(d, core.SchemeHPS, st, nil, nil, func(r trace.Request) error {
			reqs = append(reqs, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return reqs, m
	}
	plainReqs, plain := replay(false)
	tracedReqs, traced := replay(true)
	if int64(len(plainReqs)) != b.windows[0].reqs || !reflect.DeepEqual(plainReqs, tracedReqs) {
		t.Fatalf("traced replay served %d requests, untraced %d (window %d); the two differ", len(tracedReqs), len(plainReqs), b.windows[0].reqs)
	}
	if plain != traced {
		t.Fatalf("traced metrics %+v differ from untraced %+v", traced, plain)
	}
}

// TestWorkloadsStressTheirLayers checks that each workload still does what
// it was chosen for.
func TestWorkloadsStressTheirLayers(t *testing.T) {
	t.Run("aged-replay", func(t *testing.T) {
		r := testRun(t, "aged-replay", 1, time.Nanosecond, true)
		if waf := r.metrics["ftl.waf"]; waf <= 1.2 {
			t.Errorf("timed-phase write amplification %.3f, want > 1.2", waf)
		}
	})
	t.Run("read-ufs", func(t *testing.T) {
		tr, err := movieTrace(1, 0, &opSums{})
		if err != nil {
			t.Fatal(err)
		}
		if reads := len(tr.Reqs) - tr.WriteCount(); float64(reads) < 0.9*float64(len(tr.Reqs)) {
			t.Errorf("%d of %d requests are reads, want at least 90%%", reads, len(tr.Reqs))
		}
		written := map[uint64]bool{}
		for _, w := range prewrites(tr).Reqs {
			for lba := w.LBA; lba < w.EndLBA(); lba += trace.SectorsPerPage {
				written[lba/trace.SectorsPerPage] = true
			}
		}
		for _, req := range tr.Reqs {
			for lba := req.LBA; req.Op == trace.Read && lba < req.EndLBA(); lba += trace.SectorsPerPage {
				if !written[lba/trace.SectorsPerPage] {
					t.Fatalf("read at LBA %d is not pre-written", lba)
				}
			}
		}
	})
	t.Run("jobs-mix", func(t *testing.T) {
		r := testRun(t, "jobs-mix", 1, 2*time.Second, false)
		samples := r.info["samples"].(map[string]int)
		if samples["job"] == 0 || samples["fork"] == 0 {
			t.Errorf("jobs-mix completed %d fresh and %d fork jobs, want both", samples["job"], samples["fork"])
		}
	})
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for ns := int64(1); ns <= 100000; ns++ {
		h.add(ns)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got > want || got < want*0.96 {
			t.Errorf("quantile(%v) = %v, want within 4%% below %v", q, got, want)
		}
	}
}

// TestMixSequenceIsBalanced checks that every block of the jobs-mix
// sequence holds the same jobs, and that the seed changes their order.
func TestMixSequenceIsBalanced(t *testing.T) {
	order := func(seed uint64) []mixJob {
		m := newMixSequence(seed)
		var jobs []mixJob
		for i := 0; i < 3*forkEvery*len(jobApps); i++ {
			app, fork := m.next()
			jobs = append(jobs, mixJob{app, fork})
		}
		return jobs
	}
	a := order(7)
	block := forkEvery * len(jobApps)
	for start := 0; start < len(a); start += block {
		count := map[mixJob]int{}
		for _, j := range a[start : start+block] {
			count[j]++
		}
		for _, app := range jobApps {
			if count[mixJob{app, true}] != 1 || count[mixJob{app, false}] != forkEvery-1 {
				t.Fatalf("block at job %d runs %s %d times forked and %d times fresh, want 1 and %d", start, app, count[mixJob{app, true}], count[mixJob{app, false}], forkEvery-1)
			}
		}
	}
	if reflect.DeepEqual(a, order(8)) {
		t.Error("seeds 7 and 8 gave the same job order")
	}
}
