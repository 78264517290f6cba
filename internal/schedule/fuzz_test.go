package schedule

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/statevec"
)

// FuzzScheduleEquivalence fuzzes the full scheduling pipeline — clustering,
// swap insertion, boundary adjustment, heuristic mapping — against naive
// gate-by-gate simulation. Any input the fuzzer finds where the built plan
// deviates from (1⊗…⊗U⊗…⊗1)|Ψ⟩ semantics by more than 1e-9 is a scheduler
// bug; the corpus entry is the reproducer.
func FuzzScheduleEquivalence(f *testing.F) {
	f.Add(int64(1), 6, 30, 3)
	f.Add(int64(2), 8, 48, 5)
	f.Add(int64(3), 10, 60, 7)
	f.Add(int64(4), 4, 24, 2)
	f.Add(int64(5), 9, 40, 9)
	f.Fuzz(func(t *testing.T, seed int64, n, gates, l int) {
		// Clamp the raw fuzz inputs into the supported envelope instead of
		// rejecting them, so every execution exercises the scheduler.
		if n < 2 {
			n = 2
		}
		if n > 10 {
			n = 2 + int(uint(n)%9)
		}
		if gates < 1 {
			gates = 1
		}
		if gates > 120 {
			gates = 1 + int(uint(gates)%120)
		}
		// Dense 2-qubit gates need two local bit positions, so l ≥ 2.
		if l < 2 || l > n {
			l = 2 + int(uint(l)%uint(n-1))
		}
		c := circuit.RandomCircuit(n, gates, seed)

		opts := DefaultOptions(l)
		if opts.KMax > l {
			opts.KMax = l
		}
		if seed%2 != 0 {
			opts.PassCost = nil // odd seeds fuzz the paper's flat-cost greedy
		}
		plan, err := Build(c, opts)
		if err != nil {
			t.Fatalf("Build(n=%d gates=%d l=%d seed=%d): %v", n, gates, l, seed, err)
		}

		want := statevec.New(n)
		for _, g := range c.Gates {
			want.Apply(g.Matrix(), g.Qubits...)
		}
		got := statevec.New(n)
		if err := plan.Run(got); err != nil {
			t.Fatalf("Run(n=%d gates=%d l=%d seed=%d): %v", n, gates, l, seed, err)
		}
		for b := 0; b < 1<<n; b++ {
			if d := cmplx.Abs(want.Amplitude(b) - got.Amplitude(plan.PermutedIndex(b))); d > 1e-9 {
				t.Fatalf("n=%d gates=%d l=%d seed=%d: amplitude %d deviates by %g\n%s",
					n, gates, l, seed, b, d, plan.Summary())
			}
		}
	})
}

// FuzzReadPlan fuzzes the plan decoder with the oracle "decodes ⇒ runs":
// any byte string ReadPlan accepts must execute on a small state without a
// panic and keep the state normalized. A plan that decodes but cannot run
// is a missing check in validate; the corpus entry is the reproducer.
func FuzzReadPlan(f *testing.F) {
	for i, c := range []*circuit.Circuit{supremacy(9, 8, 91), circuit.RandomCircuit(6, 40, 3)} {
		plan, err := Build(c, DefaultOptions(4+i))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePlan(&buf, plan); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ReadPlan(bytes.NewReader(data))
		if err != nil || plan.N > 12 {
			return
		}
		v := statevec.NewUniform(plan.N)
		if err := plan.Run(v); err != nil {
			t.Fatalf("decoded plan fails to run: %v\n%s", err, plan.Summary())
		}
		if d := math.Abs(v.Norm() - 1); !(d <= 1e-9) {
			t.Fatalf("decoded plan changes the norm by %g\n%s", d, plan.Summary())
		}
	})
}
