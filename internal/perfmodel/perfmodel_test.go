package perfmodel

import (
	"math"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
)

func TestFlopsPerAmplitude(t *testing.T) {
	// Sec. 3.1: a 1-qubit gate costs 14 FLOP per output entry.
	if got := FlopsPerAmplitude(1); got != 14 {
		t.Errorf("FlopsPerAmplitude(1) = %v, want 14", got)
	}
	if got := FlopsPerAmplitude(4); got != 126 {
		t.Errorf("FlopsPerAmplitude(4) = %v, want 126", got)
	}
}

func TestOperationalIntensity(t *testing.T) {
	// k=1 must be below 1/2 (the paper's memory-bound observation); k=4
	// close to 4 (the roofline plots' second marker).
	if oi := OperationalIntensity(1); oi >= 0.5 {
		t.Errorf("OI(1) = %v, want < 0.5", oi)
	}
	if oi := OperationalIntensity(4); math.Abs(oi-3.9375) > 1e-12 {
		t.Errorf("OI(4) = %v, want 3.9375", oi)
	}
}

func TestRooflineRegimes(t *testing.T) {
	m := EdisonSocket()
	// 1-qubit kernels are memory-bound: roofline well below peak.
	if r := m.Roofline(OperationalIntensity(1)); r >= m.PeakGFLOPS/2 {
		t.Errorf("1-qubit roofline %v suspiciously close to peak", r)
	}
	// Very high intensity caps at peak.
	if r := m.Roofline(1000); r != m.PeakGFLOPS {
		t.Errorf("roofline(1000) = %v, want peak %v", r, m.PeakGFLOPS)
	}
}

func TestRooflineMatchesPaperEdison(t *testing.T) {
	// Fig. 2a: the best 4-qubit kernel reaches 166.2 GFLOPS on one Edison
	// socket. The calibrated model should land within 25%.
	m := EdisonSocket()
	got := m.KernelGFLOPS(4, 1e9, false)
	if got < 166.2*0.75 || got > 166.2*1.25 {
		t.Errorf("modeled Edison 4-qubit kernel %v GFLOPS, paper measures 166.2", got)
	}
}

func TestRooflineMatchesPaperKNL(t *testing.T) {
	// Fig. 2b: best 4-qubit kernel at 878.7 GFLOPS on one KNL node (state
	// in MCDRAM).
	m := CoriKNL()
	got := m.KernelGFLOPS(4, 1e9, false)
	if got < 878.7*0.75 || got > 878.7*1.25 {
		t.Errorf("modeled KNL 4-qubit kernel %v GFLOPS, paper measures 878.7", got)
	}
}

func TestMCDRAMCapacityPenalty(t *testing.T) {
	// Sec. 4.1.2: exceeding the 16 GB MCDRAM costs ≈ 2x bandwidth.
	m := CoriKNL()
	inFast := m.KernelGFLOPS(4, 8e9, false)
	inSlow := m.KernelGFLOPS(4, 64e9, false)
	ratio := inFast / inSlow
	if ratio < 1.5 || ratio > 6 {
		t.Errorf("MCDRAM/DRAM kernel ratio %v, want ≈ 460/115 regime", ratio)
	}
}

func TestHighOrderPenaltyOnlyBeyondAssociativity(t *testing.T) {
	// Fig. 6/9: k ≤ 3 shows no penalty (2^k ≤ 8-way associativity); k = 4,5
	// drop.
	for _, m := range []Machine{EdisonSocket(), CoriKNL()} {
		for k := 1; k <= 3; k++ {
			lo := m.KernelGFLOPS(k, 1e9, false)
			hi := m.KernelGFLOPS(k, 1e9, true)
			if lo != hi {
				t.Errorf("%s k=%d: unexpected high-order penalty (%v vs %v)", m.Name, k, lo, hi)
			}
		}
		for k := 4; k <= 5; k++ {
			lo := m.KernelGFLOPS(k, 1e9, false)
			hi := m.KernelGFLOPS(k, 1e9, true)
			if hi >= lo {
				t.Errorf("%s k=%d: no high-order penalty (%v vs %v)", m.Name, k, lo, hi)
			}
		}
	}
}

func TestStrongScalingShape(t *testing.T) {
	m := CoriKNL()
	// Speedup is monotone in cores and larger k scales further (higher
	// operational intensity ⇒ later bandwidth saturation), the Fig. 7
	// observation.
	for k := 1; k <= 5; k++ {
		prev := 0.0
		for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
			s := m.StrongScalingSpeedup(k, p)
			if s < prev {
				t.Errorf("k=%d: speedup not monotone at %d cores", k, p)
			}
			if s > float64(p)+1e-9 {
				t.Errorf("k=%d: superlinear speedup %v at %d cores", k, s, p)
			}
			prev = s
		}
		if k > 1 {
			if m.StrongScalingSpeedup(k, 64) < m.StrongScalingSpeedup(k-1, 64) {
				t.Errorf("k=%d scales worse than k=%d at 64 cores", k, k-1)
			}
		}
	}
}

func TestNetworkTaper(t *testing.T) {
	nw := CrayAries()
	if nw.EffectiveBW(64) <= nw.EffectiveBW(8192) {
		t.Error("effective bandwidth should decay with node count")
	}
	if nw.SwapTime(1, 30) != 0 {
		t.Error("single node should not pay swap time")
	}
	if nw.GlobalGateTime(64, 30) >= nw.SwapTime(64, 30) {
		t.Error("a global gate should cost less than a full swap")
	}
}

func buildStats(t *testing.T, n, depth, l int) schedule.Stats {
	t.Helper()
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: 0, SkipInitialH: true})
	// The KNL projection models the paper's bandwidth-bound kernels, where
	// every merge pays: schedule with the flat pass-cost table.
	opts := schedule.DefaultOptions(l)
	opts.PassCost = nil
	plan, err := schedule.Build(circ, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Stats
}

func TestTable2ShapeProjection(t *testing.T) {
	// The modeled 45-qubit run on 8192 nodes must land in the paper's
	// regime: communication-dominated (Table 2 reports 78%) with a total
	// in the hundreds of seconds (paper: 552.61 s).
	stats := buildStats(t, 45, 25, 32)
	est := EstimateScheduled(CoriKNL(), CrayAries(), stats, 8192)
	if est.CommFraction < 0.5 || est.CommFraction > 0.95 {
		t.Errorf("45q comm fraction %v, paper reports 0.78", est.CommFraction)
	}
	if est.TotalSec < 100 || est.TotalSec > 2500 {
		t.Errorf("45q total %v s, paper reports 552.61 s", est.TotalSec)
	}
	t.Logf("45q/8192 nodes: total=%.1fs comm=%.0f%% PFLOPS=%.3f (paper: 552.61s, 78%%, 0.428)",
		est.TotalSec, est.CommFraction*100, est.PFLOPS)
}

func TestScheduledBeatsBaselineProjection(t *testing.T) {
	// Table 2: >12x speedup over [5] at 42 qubits on 4096 nodes.
	stats := buildStats(t, 42, 25, 30)
	sched := EstimateScheduled(CoriKNL(), CrayAries(), stats, 4096)
	base := EstimateBaseline(CoriKNL(), CrayAries(), stats, 4096)
	speedup := base.TotalSec / sched.TotalSec
	if speedup < 4 {
		t.Errorf("modeled speedup %.1fx, paper reports 12.4x", speedup)
	}
	t.Logf("42q/4096 nodes: scheduled=%.1fs baseline=%.1fs speedup=%.1fx (paper: 79.53s, 12.4x)",
		sched.TotalSec, base.TotalSec, speedup)
}

func TestStrongScalingProjectionFig8(t *testing.T) {
	// Fig. 8: doubling nodes from 1024 to 4096 keeps speeding up the
	// 42-qubit run.
	stats := buildStats(t, 42, 25, 32)
	t1024 := EstimateScheduled(CoriKNL(), CrayAries(), stats, 1024).TotalSec
	stats2 := buildStats(t, 42, 25, 31)
	t2048 := EstimateScheduled(CoriKNL(), CrayAries(), stats2, 2048).TotalSec
	stats3 := buildStats(t, 42, 25, 30)
	t4096 := EstimateScheduled(CoriKNL(), CrayAries(), stats3, 4096).TotalSec
	if !(t1024 > t2048 && t2048 > t4096) {
		t.Errorf("no strong scaling: %v ≥ %v ≥ %v", t1024, t2048, t4096)
	}
	t.Logf("42q: 1024→%.1fs 2048→%.1fs 4096→%.1fs", t1024, t2048, t4096)
}
