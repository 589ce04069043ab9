package flash

import (
	"math"
	"testing"
)

func pairedTiming() Timing {
	t := testTiming()
	t.MLCPairing = true
	t.PairingSpread = 0.8
	return t
}

func TestProgramPoolPairing(t *testing.T) {
	tm := pairedTiming()
	pool := PoolSpec{PageBytes: 4096, BlocksPerPlane: 1, PagesPerBlock: 4}
	fast := tm.ProgramPool(pool, 0)
	slow := tm.ProgramPool(pool, 1)
	base := tm.Program(4096)
	if fast >= base || slow <= base {
		t.Fatalf("pairing fast %d / slow %d around base %d", fast, slow, base)
	}
	// The pair must average back to the datasheet's number.
	if avg := (fast + slow) / 2; avg < base-1 || avg > base+1 {
		t.Fatalf("pair average %d, want %d", avg, base)
	}
}

func TestProgramPoolWithoutPairing(t *testing.T) {
	tm := testTiming()
	pool := PoolSpec{PageBytes: 4096, BlocksPerPlane: 1, PagesPerBlock: 4}
	if tm.ProgramPool(pool, 0) != tm.ProgramPool(pool, 1) {
		t.Fatal("pairing disabled but page index changed latency")
	}
}

func TestSLCModeLatencies(t *testing.T) {
	tm := testTiming()
	slc := PoolSpec{PageBytes: 4096, BlocksPerPlane: 1, PagesPerBlock: 2, SLCMode: true}
	mlc := PoolSpec{PageBytes: 4096, BlocksPerPlane: 1, PagesPerBlock: 4}
	if tm.ProgramPool(slc, 0) >= tm.ProgramPool(mlc, 0) {
		t.Fatal("SLC-mode program not faster than MLC")
	}
	if tm.ReadPool(slc) >= tm.ReadPool(mlc) {
		t.Fatal("SLC-mode read not faster than MLC")
	}
	// SLC mode beats even the fast page of a paired MLC pool.
	paired := pairedTiming()
	if paired.ProgramPool(slc, 0) >= paired.ProgramPool(mlc, 0) {
		t.Fatal("SLC-mode program not below the MLC fast page")
	}
}

func TestSLCModeIgnoresPairingParity(t *testing.T) {
	tm := pairedTiming()
	slc := PoolSpec{PageBytes: 4096, BlocksPerPlane: 1, PagesPerBlock: 2, SLCMode: true}
	if tm.ProgramPool(slc, 0) != tm.ProgramPool(slc, 1) {
		t.Fatal("SLC-mode pool latency varies by page index")
	}
}

func TestValidateRejectsBadSpread(t *testing.T) {
	tm := testTiming()
	tm.PairingSpread = 2.5
	if err := tm.Validate(); err == nil {
		t.Fatal("pairing spread 2.5 accepted")
	}
}

// Decoded timing models are untrusted: values that would overflow
// simulated time, or NaN, must be refused.
func TestValidateRejectsOutOfRangeTiming(t *testing.T) {
	for name, mutate := range map[string]func(*Timing){
		"huge transfer cost":    func(tm *Timing) { tm.TransferNsPerByte = 3e174 },
		"negative transfer":     func(tm *Timing) { tm.TransferNsPerByte = -1 },
		"NaN transfer":          func(tm *Timing) { tm.TransferNsPerByte = math.NaN() },
		"huge erase":            func(tm *Timing) { tm.EraseNs = 1 << 62 },
		"huge read":             func(tm *Timing) { tm.PerPage[4096] = OpTiming{ReadNs: 1 << 62, ProgramNs: 1} },
		"negative overhead":     func(tm *Timing) { tm.CmdOverheadNs = -5 },
		"huge request overhead": func(tm *Timing) { tm.RequestOverheadNs = 1 << 62 },
		"NaN pipeline":          func(tm *Timing) { tm.PipelineFactor = math.NaN() },
		"SLC factor above 1":    func(tm *Timing) { tm.SLCReadFactor = 2 },
	} {
		tm := testTiming()
		mutate(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
