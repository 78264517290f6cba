package schedule

import (
	"bytes"
	"testing"

	"qusim/internal/gate"
	"qusim/internal/statevec"
)

func TestPlanRoundTrip(t *testing.T) {
	c := supremacy(12, 16, 90)
	plan, err := Build(c, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != plan.N || got.L != plan.L || len(got.Ops) != len(plan.Ops) {
		t.Fatalf("round trip mismatch: n=%d l=%d ops=%d", got.N, got.L, len(got.Ops))
	}
	if got.Stats.Swaps != plan.Stats.Swaps || got.Stats.Clusters != plan.Stats.Clusters {
		t.Errorf("stats mismatch after round trip")
	}
	// Executing the deserialized plan must give identical results.
	a := statevec.NewUniform(c.N)
	b := statevec.NewUniform(c.N)
	if err := plan.Run(a); err != nil {
		t.Fatal(err)
	}
	if err := got.Run(b); err != nil {
		t.Fatal(err)
	}
	if d := a.MaxDiff(b); d != 0 {
		t.Errorf("deserialized plan diverges: max diff %g", d)
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	if _, err := ReadPlan(bytes.NewReader([]byte("not a plan"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadPlan(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReadPlanValidates(t *testing.T) {
	c := supremacy(9, 8, 91)
	plan, err := Build(c, DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the position map and re-encode.
	bad := *plan
	bad.FinalPos = append([]int(nil), plan.FinalPos...)
	bad.FinalPos[0] = bad.FinalPos[1]
	var buf bytes.Buffer
	if err := WritePlan(&buf, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlan(&buf); err == nil {
		t.Error("non-permutation position map accepted")
	}
}

// TestReadPlanRejectsMalformedOps feeds ReadPlan plans whose ops break an
// invariant the executors rely on; every one used to decode and then panic
// in a kernel or run silently wrong.
func TestReadPlanRejectsMalformedOps(t *testing.T) {
	h := gate.H()
	cz := []complex128{1, 1, 1, -1}
	cases := []struct {
		name string
		op   Op
	}{
		{"perm not a bijection", Op{Kind: OpLocalPerm, Perm: []int{0, 0, 1}}},
		{"swap global position out of range", Op{Kind: OpSwap, LocalPos: []int{2}, GlobalPos: []int{7}}},
		{"duplicate diagonal positions", Op{Kind: OpDiagonal, Diag: cz, Positions: []int{1, 1}}},
		{"unsorted cluster positions", Op{Kind: OpCluster, Matrix: gate.Kron(h, h), Positions: []int{2, 0}}},
		{"swap local position not local", Op{Kind: OpSwap, LocalPos: []int{3}, GlobalPos: []int{3}}},
		{"swap local positions not the top ones", Op{Kind: OpSwap, LocalPos: []int{0}, GlobalPos: []int{3}}},
		{"duplicate swap global positions", Op{Kind: OpSwap, LocalPos: []int{1, 2}, GlobalPos: []int{3, 3}}},
		{"fused perm not a bijection", Op{Kind: OpSwap, LocalPos: []int{2}, GlobalPos: []int{3}, Perm: []int{1, 2, 3}}},
		{"non-unitary cluster matrix", Op{Kind: OpCluster, Matrix: h.Scale(2), Positions: []int{0}}},
		{"matrix arity mismatch", Op{Kind: OpCluster, Matrix: h, Positions: []int{0, 1}}},
		{"non-unimodular diagonal", Op{Kind: OpDiagonal, Diag: []complex128{1, 0.5}, Positions: []int{3}}},
		{"stage goes backwards", Op{Kind: OpDiagonal, Diag: cz, Positions: []int{0, 3}, Stage: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok := Op{Kind: OpCluster, Matrix: h, Positions: []int{0}}
			p := &Plan{N: 4, L: 3, Ops: []Op{ok, tc.op},
				InitialPos: []int{0, 1, 2, 3}, FinalPos: []int{0, 1, 2, 3}}
			var buf bytes.Buffer
			if err := WritePlan(&buf, p); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadPlan(&buf); err == nil {
				t.Errorf("malformed op %+v accepted", tc.op)
			}
			// The same plan without the malformed op decodes.
			p.Ops = p.Ops[:1]
			buf.Reset()
			if err := WritePlan(&buf, p); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadPlan(&buf); err != nil {
				t.Errorf("well-formed remainder rejected: %v", err)
			}
		})
	}
}
