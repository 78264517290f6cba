package schedule

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/statevec"
)

// naiveRun simulates the circuit gate by gate with no scheduling.
func naiveRun(c *circuit.Circuit) *statevec.Vector {
	v := statevec.New(c.N)
	for _, g := range c.Gates {
		v.Apply(g.Matrix(), g.Qubits...)
	}
	return v
}

// planRun builds a plan with opts and executes it on a single node, then
// compares amplitudes against naive simulation through the plan's final
// qubit → location mapping.
func assertPlanEquivalent(t *testing.T, c *circuit.Circuit, opts Options) *Plan {
	t.Helper()
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := naiveRun(c)
	got := statevec.New(c.N)
	if err := plan.Run(got); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var maxd float64
	for b := 0; b < 1<<c.N; b++ {
		d := cmplx.Abs(want.Amplitude(b) - got.Amplitude(plan.PermutedIndex(b)))
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-9 {
		t.Fatalf("plan (l=%d kmax=%d policy=%v) deviates from naive simulation: max diff %g\n%s",
			opts.LocalQubits, opts.KMax, opts.SwapPolicy, maxd, plan.Summary())
	}
	return plan
}

func supremacy(n, depth int, seed int64) *circuit.Circuit {
	r, c := circuit.GridForQubits(n)
	return circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: seed})
}

func TestPlanEquivalenceSingleStage(t *testing.T) {
	c := supremacy(12, 12, 1)
	opts := DefaultOptions(12) // l = n: no communication
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.Swaps != 0 {
		t.Errorf("l=n plan has %d swaps", plan.Stats.Swaps)
	}
	if plan.Stats.Stages != 1 {
		t.Errorf("l=n plan has %d stages", plan.Stats.Stages)
	}
}

func TestPlanEquivalenceMultiStage(t *testing.T) {
	for _, l := range []int{6, 8, 10} {
		for _, kmax := range []int{2, 3, 4} {
			c := supremacy(12, 10, 2)
			opts := DefaultOptions(l)
			opts.KMax = kmax
			plan := assertPlanEquivalent(t, c, opts)
			if l < c.N && plan.Stats.Swaps == 0 {
				t.Errorf("l=%d: expected at least one swap", l)
			}
		}
	}
}

func TestPlanEquivalenceAllPolicyCombinations(t *testing.T) {
	c := supremacy(12, 14, 3)
	for _, policy := range []SwapPolicy{SwapGreedy, SwapLowestOrder} {
		for _, mapping := range []MappingPolicy{MapIdentity, MapHeuristic} {
			for _, adjust := range []bool{false, true} {
				for _, spec1q := range []bool{false, true} {
					opts := DefaultOptions(8)
					opts.SwapPolicy = policy
					opts.Mapping = mapping
					opts.AdjustBoundaries = adjust
					opts.SpecializeDiagonal1Q = spec1q
					assertPlanEquivalent(t, c, opts)
				}
			}
		}
	}
}

func TestPlanEquivalenceNoClustering(t *testing.T) {
	c := supremacy(9, 10, 4)
	opts := DefaultOptions(6)
	opts.Clustering = false
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.GatesPerCluster > 1.01 && plan.Stats.Clusters > 0 {
		t.Errorf("no-clustering plan merged gates: %v per cluster", plan.Stats.GatesPerCluster)
	}
}

func TestPlanEquivalenceNoSpecialization(t *testing.T) {
	c := supremacy(9, 12, 5)
	opts := DefaultOptions(6)
	opts.SpecializeDiagonal2Q = false
	opts.SpecializeDiagonal1Q = false
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.DiagonalOps != 0 {
		t.Errorf("specialization disabled but %d global diagonal ops emitted", plan.Stats.DiagonalOps)
	}
}

func TestSpecializationReducesSwaps(t *testing.T) {
	// Sec. 3.5: CZ specialization cuts the communication of 36-qubit
	// circuits by 2x. Verify the ordering on a scaled-down instance.
	c := supremacy(16, 25, 6)
	with := DefaultOptions(10)
	without := DefaultOptions(10)
	without.SpecializeDiagonal2Q = false
	pw, err := Build(c, with)
	if err != nil {
		t.Fatal(err)
	}
	pwo, err := Build(c, without)
	if err != nil {
		t.Fatal(err)
	}
	if pw.Stats.Swaps > pwo.Stats.Swaps {
		t.Errorf("specialization increased swaps: %d with vs %d without", pw.Stats.Swaps, pwo.Stats.Swaps)
	}
	if pw.Stats.Swaps == pwo.Stats.Swaps {
		t.Logf("note: specialization did not reduce swaps on this instance (%d)", pw.Stats.Swaps)
	}
}

func TestGreedyBeatsLowestOrder(t *testing.T) {
	c := supremacy(16, 25, 7)
	greedy := DefaultOptions(10)
	lowest := DefaultOptions(10)
	lowest.SwapPolicy = SwapLowestOrder
	pg, err := Build(c, greedy)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Build(c, lowest)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Stats.Swaps > pl.Stats.Swaps {
		t.Errorf("greedy search produced more swaps (%d) than the lowest-order baseline (%d)",
			pg.Stats.Swaps, pl.Stats.Swaps)
	}
}

func TestSwapCountBeatsPerGateBaseline(t *testing.T) {
	// The headline claim: a handful of global-to-local swaps replaces the
	// ~50 per-gate communication steps of [5] (Sec. 4.1.2).
	c := supremacy(16, 25, 8)
	opts := DefaultOptions(10)
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.BaselineGlobalGates <= plan.Stats.Swaps {
		t.Errorf("baseline global gates %d not above swap count %d",
			plan.Stats.BaselineGlobalGates, plan.Stats.Swaps)
	}
	ratio := float64(plan.Stats.BaselineGlobalGates) / float64(max(plan.Stats.Swaps, 1))
	if ratio < 4 {
		t.Errorf("communication reduction only %.1fx (baseline %d, swaps %d), expected ≥4x",
			ratio, plan.Stats.BaselineGlobalGates, plan.Stats.Swaps)
	}
	t.Logf("comm steps: baseline=%d (dense %d), ours=%d (%.1fx reduction)",
		plan.Stats.BaselineGlobalGates, plan.Stats.BaselineGlobalGatesDense,
		plan.Stats.Swaps, ratio)
}

func TestClusteringMergesMoreThanKMaxGates(t *testing.T) {
	// Table 1's observation: on average more than kmax gates merge into a
	// kmax-qubit cluster.
	c := supremacy(30, 25, 0)
	for _, kmax := range []int{3, 4, 5} {
		opts := DefaultOptions(30)
		opts.KMax = kmax
		opts.PassCost = nil // the paper's machine: every merge pays
		plan, err := Build(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Stats.GatesPerCluster < float64(kmax) {
			t.Errorf("kmax=%d: %.2f gates per cluster, want ≥ %d",
				kmax, plan.Stats.GatesPerCluster, kmax)
		}
		t.Logf("kmax=%d: %d clusters, %.2f gates/cluster (paper: %d clusters for 369 gates)",
			kmax, plan.Stats.Clusters, plan.Stats.GatesPerCluster,
			map[int]int{3: 82, 4: 46, 5: 36}[kmax])
	}
}

func TestClusterSizesRespectKMax(t *testing.T) {
	c := supremacy(16, 20, 9)
	opts := DefaultOptions(10)
	opts.KMax = 3
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range plan.Stats.ClusterSizes {
		if k > 3 {
			t.Errorf("cluster of size %d exceeds kmax=3", k)
		}
	}
	for _, op := range plan.Ops {
		if op.Kind == OpCluster && len(op.Positions) > 3 {
			t.Errorf("cluster op on %d positions exceeds kmax=3", len(op.Positions))
		}
	}
}

func TestClusterPositionsAreLocal(t *testing.T) {
	c := supremacy(12, 16, 10)
	opts := DefaultOptions(7)
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range plan.Ops {
		if op.Kind != OpCluster {
			continue
		}
		for _, p := range op.Positions {
			if p >= plan.L {
				t.Errorf("cluster touches global location %d (l=%d)", p, plan.L)
			}
		}
	}
}

func TestDiagonalOpsMayTouchGlobals(t *testing.T) {
	c := supremacy(12, 16, 10)
	opts := DefaultOptions(7)
	plan, err := Build(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	sawGlobal := false
	for _, op := range plan.Ops {
		if op.Kind == OpDiagonal {
			for _, p := range op.Positions {
				if p >= plan.L {
					sawGlobal = true
				}
			}
		}
	}
	if !sawGlobal {
		t.Log("note: no diagonal op touched a global location on this instance")
	}
}

func TestSwapCountIndependentOfLocalQubits(t *testing.T) {
	// Fig. 5a: "the number of global-to-local swaps is mostly independent
	// of the number of local qubits". Scaled to 20 qubits with l in a
	// 4-value window.
	c := supremacy(20, 25, 11)
	var swaps []int
	for _, l := range []int{13, 14, 15, 16} {
		plan, err := Build(c, DefaultOptions(l))
		if err != nil {
			t.Fatal(err)
		}
		swaps = append(swaps, plan.Stats.Swaps)
	}
	min0, max0 := swaps[0], swaps[0]
	for _, s := range swaps {
		if s < min0 {
			min0 = s
		}
		if s > max0 {
			max0 = s
		}
	}
	if max0-min0 > 1 {
		t.Errorf("swap counts vary too much across local-qubit counts: %v", swaps)
	}
}

func TestQFTPlanEquivalence(t *testing.T) {
	// QFT is dominated by diagonal controlled-phase gates: a strong test of
	// the specialization path.
	c := circuit.QFT(10)
	opts := DefaultOptions(6)
	opts.KMax = 3
	plan := assertPlanEquivalent(t, c, opts)
	if plan.Stats.DiagonalOps == 0 {
		t.Error("QFT plan used no specialized diagonal ops")
	}
}

func TestGHZPlanEquivalence(t *testing.T) {
	assertPlanEquivalent(t, circuit.GHZ(11), DefaultOptions(6))
}

func TestRandomCircuitPlanEquivalenceProperty(t *testing.T) {
	// Random circuits mixing dense, diagonal, 1- and 2-qubit gates.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(4)
		c := circuit.NewCircuit(n)
		for i := 0; i < 40; i++ {
			switch rng.Intn(6) {
			case 0:
				c.Append(circuit.NewH(rng.Intn(n)))
			case 1:
				c.Append(circuit.NewT(rng.Intn(n)))
			case 2:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Append(circuit.NewCZ(a, b))
				}
			case 3:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.Append(circuit.NewCNOT(a, b))
				}
			case 4:
				c.Append(circuit.NewXHalf(rng.Intn(n)))
			case 5:
				c.Append(circuit.NewRz(rng.Intn(n), rng.Float64()))
			}
		}
		l := 4 + rng.Intn(n-3)
		opts := DefaultOptions(l)
		opts.KMax = 2 + rng.Intn(3)
		if opts.KMax > l {
			opts.KMax = l
		}
		opts.SpecializeDiagonal1Q = rng.Intn(2) == 0
		assertPlanEquivalent(t, c, opts)
	}
}

func TestSwapPermFusion(t *testing.T) {
	// The peephole must fold every OpLocalPerm that immediately precedes a
	// swap into the swap op, count the folds in Stats.FusedPerms, and keep
	// plan execution exact (assertPlanEquivalent runs the fused plan).
	c := supremacy(16, 25, 15)
	plan := assertPlanEquivalent(t, c, DefaultOptions(10))
	fused := 0
	for i := range plan.Ops {
		op := &plan.Ops[i]
		if op.Kind == OpSwap && op.Perm != nil {
			fused++
			if len(op.Perm) != plan.L {
				t.Errorf("op %d: fused perm length %d, want l=%d", i, len(op.Perm), plan.L)
			}
		}
		if op.Kind == OpLocalPerm && i+1 < len(plan.Ops) &&
			plan.Ops[i+1].Kind == OpSwap && plan.Ops[i+1].Perm == nil {
			t.Errorf("op %d: unfused OpLocalPerm left ahead of a plain OpSwap", i)
		}
	}
	if fused == 0 {
		t.Error("no fused swap in a multi-stage supremacy plan")
	}
	if plan.Stats.FusedPerms != fused {
		t.Errorf("Stats.FusedPerms = %d, plan has %d fused swaps", plan.Stats.FusedPerms, fused)
	}
	if plan.Stats.LocalPerms < plan.Stats.FusedPerms {
		t.Errorf("LocalPerms %d < FusedPerms %d — fused perms must stay counted",
			plan.Stats.LocalPerms, plan.Stats.FusedPerms)
	}
}

func TestOptionsValidation(t *testing.T) {
	c := supremacy(9, 8, 1)
	if _, err := Build(c, Options{LocalQubits: 0, KMax: 1}); err == nil {
		t.Error("LocalQubits=0 accepted")
	}
	if _, err := Build(c, Options{LocalQubits: 5, KMax: 0}); err == nil {
		t.Error("KMax=0 accepted")
	}
	if _, err := Build(c, Options{LocalQubits: 3, KMax: 5}); err == nil {
		t.Error("KMax > l accepted")
	}
	for name, cost := range map[string][]float64{
		"NaN entry":     {1, 1, math.NaN(), 1},
		"+Inf entry":    {1, 1, 1, math.Inf(1)},
		"-Inf entry":    {math.Inf(-1), 1, 1, 1},
		"zero entry":    {1, 0, 1, 1},
		"negative":      {1, 1, -2, 1},
		"short of KMax": {1, 1, 1},
		"empty":         {},
	} {
		if _, err := Build(c, Options{LocalQubits: 5, KMax: 3, PassCost: cost}); err == nil {
			t.Errorf("PassCost %s (%v) accepted", name, cost)
		}
	}
	if _, err := Build(c, Options{LocalQubits: 5, KMax: 3, PassCost: []float64{1, 2, 3, 4}}); err != nil {
		t.Errorf("PassCost covering k ≤ KMax rejected: %v", err)
	}
}

func TestStatsGateCoverage(t *testing.T) {
	c := supremacy(16, 20, 12)
	plan, err := Build(c, DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, op := range plan.Ops {
		if op.Kind == OpCluster || op.Kind == OpDiagonal {
			covered += op.GateCount
		}
	}
	if covered != len(c.Gates) {
		t.Errorf("ops cover %d gates, circuit has %d", covered, len(c.Gates))
	}
	if plan.Stats.Gates != len(c.Gates) {
		t.Errorf("Stats.Gates = %d, want %d", plan.Stats.Gates, len(c.Gates))
	}
}

func TestFinalPosIsPermutation(t *testing.T) {
	c := supremacy(12, 18, 13)
	plan, err := Build(c, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range [][]int{plan.InitialPos, plan.FinalPos} {
		seen := make([]bool, plan.N)
		for _, p := range pos {
			if p < 0 || p >= plan.N || seen[p] {
				t.Fatalf("bad position mapping %v", pos)
			}
			seen[p] = true
		}
	}
}

func TestUniformInitIndependentOfMapping(t *testing.T) {
	// Starting from the uniform state, the plan result must match naive
	// simulation of the SkipInitialH circuit regardless of layout.
	n := 10
	r, cgrid := circuit.GridForQubits(n)
	c := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: cgrid, Depth: 12, Seed: 14, SkipInitialH: true})
	plan, err := Build(c, DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	want := statevec.NewUniform(n)
	for _, g := range c.Gates {
		want.Apply(g.Matrix(), g.Qubits...)
	}
	got := statevec.NewUniform(n)
	if err := plan.Run(got); err != nil {
		t.Fatal(err)
	}
	var maxd float64
	for b := 0; b < 1<<n; b++ {
		d := cmplx.Abs(want.Amplitude(b) - got.Amplitude(plan.PermutedIndex(b)))
		if d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-9 {
		t.Errorf("uniform-init plan deviates: %g", maxd)
	}
	if math.Abs(got.Norm()-1) > 1e-9 {
		t.Errorf("norm drift: %v", got.Norm())
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDefaultOptionsKMaxFive(t *testing.T) {
	if got := DefaultOptions(12).KMax; got != 5 {
		t.Errorf("DefaultOptions(12).KMax = %d, want 5", got)
	}
	// Small local windows clamp KMax so validate still accepts the options.
	for _, l := range []int{1, 3, 4} {
		opts := DefaultOptions(l)
		if opts.KMax != l {
			t.Errorf("DefaultOptions(%d).KMax = %d, want clamped to %d", l, opts.KMax, l)
		}
		if err := opts.validate(12); err != nil {
			t.Errorf("DefaultOptions(%d) does not validate: %v", l, err)
		}
	}
}

func TestPlanEquivalenceKMaxFive(t *testing.T) {
	c := supremacy(12, 16, 6)
	for _, l := range []int{8, 12} {
		opts := DefaultOptions(l)
		opts.PassCost = nil // the paper's machine: clusters grow to KMax
		plan := assertPlanEquivalent(t, c, opts)
		sawFive := false
		for i := range plan.Ops {
			op := &plan.Ops[i]
			if op.Kind == OpCluster {
				if k := len(op.Positions); k > 5 {
					t.Fatalf("l=%d: cluster with %d > 5 qubits", l, k)
				} else if k == 5 {
					sawFive = true
				}
			}
		}
		if !sawFive {
			t.Errorf("l=%d: kmax=5 plan built no 5-qubit cluster on a depth-16 circuit", l)
		}
	}
}

// planCost sums the pass costs of a plan's cluster and diagonal ops under
// the table cost.
func planCost(p *Plan, cost []float64) float64 {
	var sum float64
	for i := range p.Ops {
		switch op := &p.Ops[i]; op.Kind {
		case OpCluster:
			sum += cost[len(op.Positions)]
		case OpDiagonal:
			sum += cost[0]
		}
	}
	return sum
}

// TestCostModelNeverPricedAboveFlat checks that pricing merges never makes
// a plan dearer than the paper's greedy at the same KMax, measured with
// the same table, that both plans stay exact, and that the default table
// keeps dense clusters of one- and two-qubit gates at k ≤ 2 (a dense k=3
// pass costs more than any two passes it could replace).
func TestCostModelNeverPricedAboveFlat(t *testing.T) {
	circuits := []*circuit.Circuit{supremacy(12, 16, 21), supremacy(11, 20, 22)}
	for seed := int64(0); seed < 4; seed++ {
		circuits = append(circuits, circuit.RandomCircuit(10, 80, seed))
	}
	var sumPriced, sumFlat float64
	for ci, c := range circuits {
		for _, l := range []int{5, 8, c.N} {
			priced := DefaultOptions(l)
			flat := priced
			flat.PassCost = nil
			pp := assertPlanEquivalent(t, c, priced)
			pf := assertPlanEquivalent(t, c, flat)
			cp, cf := planCost(pp, priced.PassCost), planCost(pf, priced.PassCost)
			if cp > cf {
				t.Errorf("circuit %d l=%d: priced plan costs %.2f ns/amp, flat plan %.2f", ci, l, cp, cf)
			}
			sumPriced += cp
			sumFlat += cf
			for i := range pp.Ops {
				if op := &pp.Ops[i]; op.Kind == OpCluster && len(op.Positions) > 2 {
					t.Errorf("circuit %d l=%d: dense %d-qubit cluster under the default table", ci, l, len(op.Positions))
				}
			}
		}
	}
	if sumPriced >= sumFlat {
		t.Errorf("priced plans cost %.1f ns/amp in total, flat plans %.1f: pricing chose nothing cheaper", sumPriced, sumFlat)
	}
}

// TestStatsCountEveryPass checks that the plan's counts add up to its op
// list: every non-swap op is a cluster, a specialized global diagonal or
// an unfused local permutation, and the diagonal clusters are exactly the
// OpDiagonal passes that are not specialized global diagonals.
func TestStatsCountEveryPass(t *testing.T) {
	c := supremacy(16, 25, 23)
	for _, l := range []int{10, 16} {
		for _, flat := range []bool{false, true} {
			opts := DefaultOptions(l)
			if flat {
				opts.PassCost = nil
			}
			plan, err := Build(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			nonSwap, diagonal := 0, 0
			for i := range plan.Ops {
				switch plan.Ops[i].Kind {
				case OpSwap:
					continue
				case OpDiagonal:
					diagonal++
				}
				nonSwap++
			}
			st := plan.Stats
			if got := st.Clusters + st.DiagonalOps + st.LocalPerms - st.FusedPerms; got != nonSwap {
				t.Errorf("l=%d flat=%v: clusters %d + diag ops %d + unfused perms %d = %d, plan has %d non-swap ops",
					l, flat, st.Clusters, st.DiagonalOps, st.LocalPerms-st.FusedPerms, got, nonSwap)
			}
			if st.DiagonalClusters != diagonal-st.DiagonalOps {
				t.Errorf("l=%d flat=%v: %d diagonal clusters, plan has %d OpDiagonal passes and %d global diagonals",
					l, flat, st.DiagonalClusters, diagonal, st.DiagonalOps)
			}
		}
	}
}
