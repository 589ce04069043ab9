package faults

import (
	"math"
	"testing"

	"emmcio/internal/reliability"
	"emmcio/internal/telemetry"
)

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if in.ProgramFails(100) || in.EraseFails(100) || in.ReadUncorrectable(100) {
		t.Fatal("nil injector injected a fault")
	}
	if in.Draws() != 0 || in.Counts() != (Counts{}) || in.RecoveryReads() != 0 {
		t.Fatal("nil injector reports non-zero state")
	}
	in.Skip(10)
	in.SetTelemetry(telemetry.NewRegistry())
}

func TestNilConfigBuildsNilInjector(t *testing.T) {
	in, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if in != nil {
		t.Fatal("nil config built a non-nil injector")
	}
}

func TestRateZeroNeverDraws(t *testing.T) {
	in, err := New(&Config{Seed: 1, Rate: 0})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0.0; pe <= 6000; pe += 500 {
		if in.ProgramFails(pe) || in.EraseFails(pe) || in.ReadUncorrectable(pe) {
			t.Fatalf("rate-0 injector fired at pe=%v", pe)
		}
	}
	if in.Draws() != 0 {
		t.Fatalf("rate-0 injector drew %d times", in.Draws())
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := New(&Config{Rate: rate}); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
	if _, err := New(&Config{Rate: 1, ProgramFailBase: -1}); err == nil {
		t.Error("negative program-fail base accepted")
	}
	if _, err := New(&Config{Rate: 1, Model: &reliability.Model{}}); err == nil {
		t.Error("invalid reliability model accepted")
	}
}

func TestProbabilitiesGrowWithWear(t *testing.T) {
	in, err := New(&Config{Seed: 1, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := reliability.Default()
	for _, p := range []struct {
		name string
		f    func(float64) float64
	}{
		{"program", in.ProgramProbability},
		{"erase", in.EraseProbability},
		{"read", in.ReadProbability},
	} {
		prev := -1.0
		// Stop at the RBER cap (RBER clamps to 0.5 around 3.35x life under
		// the default model), beyond which the curves legitimately flatten.
		for pe := 0.0; pe <= 2.0*model.Endurance; pe += 250 {
			v := p.f(pe)
			// The Poisson-tail sum cancels to ~0 at low wear; ignore
			// sub-epsilon jitter there.
			if v < prev && prev > 1e-12 {
				t.Fatalf("%s probability shrank: p(%v)=%v < %v", p.name, pe, v, prev)
			}
			if v < 0 || v > 1 {
				t.Fatalf("%s probability %v outside [0,1]", p.name, v)
			}
			prev = v
		}
		if fresh := p.f(0); fresh >= p.f(1.5*model.Endurance) {
			t.Fatalf("%s probability did not grow over life: fresh=%v", p.name, fresh)
		}
	}
}

func TestRateScalesProbability(t *testing.T) {
	one, _ := New(&Config{Seed: 1, Rate: 1})
	four, _ := New(&Config{Seed: 1, Rate: 4})
	pe := 1500.0
	if got, want := four.ProgramProbability(pe), 4*one.ProgramProbability(pe); math.Abs(got-want) > 1e-15 {
		t.Fatalf("rate-4 program probability %v, want %v", got, want)
	}
}

func TestDeterministicSequences(t *testing.T) {
	run := func() ([]bool, int64, Counts) {
		in, err := New(&Config{Seed: 42, Rate: 3})
		if err != nil {
			t.Fatal(err)
		}
		var seq []bool
		for i := 0; i < 2000; i++ {
			pe := float64(i) * 2 // ramp wear so all three curves move
			seq = append(seq, in.ProgramFails(pe), in.EraseFails(pe), in.ReadUncorrectable(pe))
		}
		return seq, in.Draws(), in.Counts()
	}
	s1, d1, c1 := run()
	s2, d2, c2 := run()
	if d1 != d2 || c1 != c2 {
		t.Fatalf("state diverged: draws %d vs %d, counts %+v vs %+v", d1, d2, c1, c2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	if c1.Total() == 0 {
		t.Fatal("no faults fired over a full wear ramp at rate 3")
	}
}

func TestSkipResumesStream(t *testing.T) {
	full, _ := New(&Config{Seed: 7, Rate: 2})
	pe := 4000.0
	var want []bool
	for i := 0; i < 500; i++ {
		want = append(want, full.ProgramFails(pe))
	}
	cut := int64(0)
	// Replay the first half on a fresh injector, snapshot its draw count,
	// and resume a third injector from that point via Skip.
	half, _ := New(&Config{Seed: 7, Rate: 2})
	for i := 0; i < 250; i++ {
		half.ProgramFails(pe)
	}
	cut = half.Draws()

	resumed, _ := New(&Config{Seed: 7, Rate: 2})
	resumed.Skip(cut)
	for i := 250; i < 500; i++ {
		if got := resumed.ProgramFails(pe); got != want[i] {
			t.Fatalf("decision %d after Skip(%d) diverged", i, cut)
		}
	}
}

func TestTelemetryCountsFaults(t *testing.T) {
	reg := telemetry.NewRegistry()
	in, _ := New(&Config{Seed: 9, Rate: 1})
	in.SetTelemetry(reg)
	for i := 0; i < 5000; i++ {
		in.ProgramFails(5000)
		in.ReadUncorrectable(5000)
	}
	c := in.Counts()
	if c.Program == 0 || c.Read == 0 {
		t.Fatalf("expected faults at deep wear, got %+v", c)
	}
	got := map[string]int64{}
	reg.EachCounter(func(name string, v int64) { got[name] = v })
	if got[`faults_injected_total{kind="program"}`] != c.Program {
		t.Fatalf("program counter %v, want %d (all: %v)", got, c.Program, got)
	}
	if got[`faults_injected_total{kind="read"}`] != c.Read {
		t.Fatalf("read counter mismatch: %v", got)
	}
}

func TestExtremeProbabilitiesSkipRNG(t *testing.T) {
	// Force p >= 1 via a huge rate: the decision must be deterministic-true
	// and must not consume a draw.
	in, _ := New(&Config{Seed: 1, Rate: 1e12})
	if !in.ProgramFails(6000) {
		t.Fatal("p>=1 did not fail")
	}
	if in.Draws() != 0 {
		t.Fatalf("p>=1 consumed %d draws", in.Draws())
	}
}

// Resume restores an archived stream position and refuses archives no
// snapshot can hold: a negative draw count, the all-zero generator state,
// or any position without an injector.
func TestResume(t *testing.T) {
	cfg := &Config{Seed: 7, Rate: 2}
	want, _ := New(cfg)
	want.Skip(12345)
	got, err := Resume(cfg, want.State(), want.Draws())
	if err != nil {
		t.Fatal(err)
	}
	if got.Draws() != 12345 || got.State() != want.State() {
		t.Fatal("resumed injector is not at the archived position")
	}
	for i := 0; i < 1000; i++ {
		if got.ProgramFails(3000) != want.ProgramFails(3000) {
			t.Fatalf("decision %d after resume diverged", i)
		}
	}
	if in, err := Resume(nil, [4]uint64{}, 0); err != nil || in != nil {
		t.Fatalf("Resume(nil) = %v, %v; want no injector", in, err)
	}
	for _, c := range []struct {
		cfg   *Config
		state [4]uint64
		draws int64
	}{
		{cfg, want.State(), -1},
		{cfg, [4]uint64{}, 0},
		{nil, [4]uint64{}, 5},
		{nil, [4]uint64{1}, 0},
	} {
		if _, err := Resume(c.cfg, c.state, c.draws); err == nil {
			t.Errorf("Resume(%v, %x, %d) accepted", c.cfg, c.state, c.draws)
		}
	}
}
