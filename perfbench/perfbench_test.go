package main

import (
	"math"
	"math/rand"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/f32vec"
	"qusim/internal/gate"
	"qusim/internal/oocvec"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
	"qusim/internal/xeb"
)

// porterThomas returns a seeded exponentially distributed probability
// vector, the output distribution of an ideal chaotic circuit.
func porterThomas(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	probs := make([]float64, 1<<n)
	var sum float64
	for i := range probs {
		probs[i] = rng.ExpFloat64()
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// TestPerturbedOutputFails checks that the correctness checks pass on a
// good answer and count a perturbed one as a failure.
func TestPerturbedOutputFails(t *testing.T) {
	const n, shots = 14, 1 << 14
	probs := porterThomas(n, 1)
	samples, err := xeb.Sample(probs, shots, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	score, err := xeb.LinearXEB(n, probs, samples)
	if err != nil {
		t.Fatal(err)
	}
	var good checks
	checkSupremacy(&good, n, probs, tolF64, score, shots)
	checkResume(&good, probs, append([]float64(nil), probs...), score, score)
	if len(good) != 0 {
		t.Fatalf("good answer failed: %v", good)
	}

	scaled := make([]float64, len(probs))
	for i, p := range probs {
		scaled[i] = p * (1 + 1e-6)
	}
	nudged := append([]float64(nil), probs...)
	nudged[7] = math.Nextafter(nudged[7], 1)
	refProbs := porterThomas(4, 3)
	finalPos := []int{0, 1, 2, 3}
	// Every sample cuts all four ring edges; the exact mean is near 2.
	alternating := make([]int, 400)
	for i := range alternating {
		alternating[i] = 0b0101
	}
	cases := map[string]func(c *checks){
		"norm":       func(c *checks) { checkSupremacy(c, n, scaled, tolF64, score, shots) },
		"xeb score":  func(c *checks) { checkSupremacy(c, n, probs, tolF64, score+0.5, shots) },
		"resume ulp": func(c *checks) { checkResume(c, probs, nudged, score, score) },
		"qaoa entropy": func(c *checks) {
			checkQAOA(c, 1, 2+2*qaoaEntropyTol, 2, nil, finalPos, nil)
		},
		"qaoa cut": func(c *checks) {
			checkQAOA(c, 1, 2, 2, refProbs, finalPos, alternating)
		},
		"exact count": func(c *checks) { c.exact("swaps", 9, 8) },
	}
	for name, perturb := range cases {
		var c checks
		perturb(&c)
		var tl tally
		tl.add(name, c)
		var r report
		tl.into(&r)
		if r.Failed != 1 || r.Correct {
			t.Errorf("%s: perturbed output not counted as a failure (failed=%d correct=%v)", name, r.Failed, r.Correct)
		}
	}
}

// TestWrongGateFails checks that the supremacy state passes its
// gate-by-gate reference in both precisions and fails it when one gate of
// the executed plan acts on the wrong qubit or with a transposed matrix:
// faults that keep the state unitary and its output distribution chaotic.
func TestWrongGateFails(t *testing.T) {
	rows, cols := circuit.GridForQubits(12)
	c := circuit.Supremacy(circuit.SupremacyOptions{Rows: rows, Cols: cols, Depth: 12, Seed: 5, SkipInitialH: true})
	ref := gateByGate(&env{}, c).Amps

	// run schedules c like the workloads do and checks the executed state.
	run := func(c *circuit.Circuit, f32 bool) checks {
		plan, err := schedule.Build(c, schedule.DefaultOptions(c.N))
		if err != nil {
			t.Fatal(err)
		}
		var got checks
		if f32 {
			v := f32vec.NewUniform(c.N)
			if err := v.RunPlan(plan); err != nil {
				t.Fatal(err)
			}
			checkReference(&got, ref, plan.FinalPos, func(y int) complex128 { return complex128(v.Amps[y]) }, tolF32)
			return got
		}
		v := statevec.NewUniform(c.N)
		if err := plan.Run(v); err != nil {
			t.Fatal(err)
		}
		checkReference(&got, ref, plan.FinalPos, func(y int) complex128 { return v.Amps[y] }, tolF64)
		return got
	}
	for _, f32 := range []bool{false, true} {
		if got := run(c, f32); len(got) != 0 {
			t.Fatalf("f32=%v: correct state failed: %v", f32, got)
		}
	}

	// The first single-qubit gate whose matrix is not symmetric.
	j := -1
	for k := range c.Gates {
		m := c.Gates[k].Matrix()
		if m.K == 1 && m.Data[1] != m.Data[2] {
			j = k
			break
		}
	}
	if j < 0 {
		t.Fatal("no asymmetric single-qubit gate to perturb")
	}
	g := c.Gates[j]
	m := g.Matrix()
	transposed := gate.Matrix{K: 1, Data: []complex128{m.Data[0], m.Data[2], m.Data[1], m.Data[3]}}
	cases := map[string]circuit.Gate{
		"wrong target":      circuit.NewUnitary(m, (g.Qubits[0]+1)%c.N),
		"transposed matrix": circuit.NewUnitary(transposed, g.Qubits[0]),
	}
	for name, bad := range cases {
		wrong := &circuit.Circuit{N: c.N, Gates: append([]circuit.Gate(nil), c.Gates...)}
		wrong.Gates[j] = bad
		for _, f32 := range []bool{false, true} {
			got := run(wrong, f32)
			var tl tally
			tl.add(name, got)
			var r report
			tl.into(&r)
			if r.Failed != 1 || r.Correct {
				t.Errorf("%s, f32=%v: wrong state not counted as a failure", name, f32)
			}
		}
	}
}

// TestPlanCountsMatchLayers runs small instances of the QAOA workloads and
// checks that the plan-derived counts equal what dist, mpi, ckpt and
// oocvec report.
func TestPlanCountsMatchLayers(t *testing.T) {
	const n, l, ranks = 10, 6, 16
	set := circuit.SweepParams(7, 2, 4)[1]
	plan, err := schedule.Build(circuit.QAOAMaxCutRing(n, set[:2], set[2:]), schedule.DefaultOptions(l))
	if err != nil {
		t.Fatal(err)
	}
	pc := countPlan(plan)
	if pc.swaps == 0 {
		t.Fatal("test plan has no swaps; the comparison would be vacuous")
	}

	tel := telemetry.New()
	ckpt.SetTelemetry(tel)
	defer ckpt.SetTelemetry(nil)
	res, err := dist.Run(plan, dist.Options{Ranks: ranks, Init: dist.InitZero, Telemetry: tel,
		Checkpoint: &ckpt.Policy{Dir: t.TempDir(), EveryStages: 1, Keep: ckptKeep}})
	if err != nil {
		t.Fatal(err)
	}
	m := sinks(tel)
	var c checks
	c.exact("comm steps", int64(res.CommSteps), int64(pc.swaps))
	c.exact("comm bytes", res.CommBytes, pc.commBytes)
	c.exact("mpi.bytes", int64(m["mpi.bytes"]), pc.commBytes)
	c.exact("commits", int64(m["ckpt.commits"]), int64(pc.commits()))
	c.exact("shard bytes", int64(m["ckpt.shard_write_bytes"]), int64(pc.commits())*stateBytes(plan))

	v, err := oocvec.New(n, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	otel := telemetry.New()
	v.SetPrefetch(oocPrefetch)
	v.SetTelemetry(otel)
	if err := v.Run(plan); err != nil {
		t.Fatal(err)
	}
	om := sinks(otel)
	c.exact("chunks read", int64(om["oocvec.chunks_read"]), int64(pc.chunkTransfers(plan)))
	c.exact("chunks written", int64(om["oocvec.chunks_written"]), int64(pc.chunkTransfers(plan)))
	for _, f := range c {
		t.Error(f)
	}
}
