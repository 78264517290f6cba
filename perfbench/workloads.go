package main

import (
	"errors"
	"fmt"
	"math/rand"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/f32vec"
	"qusim/internal/kernels"
	"qusim/internal/oocvec"
	"qusim/internal/par"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/xeb"
)

// Workload sizes. The 22-qubit supremacy state is 64 MiB in double
// precision: every kernel sweep leaves the private caches, yet it fits
// 2-core, few-GiB hosts. The QAOA sweep runs at 20 qubits: at 22, p=8 one
// circuit takes about 9 s distributed or out of core plus 7 s for its
// in-memory reference on such a host, too long for medians over several
// circuits per run. Its stage, swap, commit and chunk counts do not depend
// on n, only the bytes per operation do.
const (
	supremacyQubits = 22
	supremacyDepth  = 25
	xebShots        = 1 << 15

	qaoaQubits  = 20
	qaoaLayers  = 8
	qaoaRanks   = 16 // dist ranks, and oocvec chunks
	qaoaLocal   = 16 // local qubits per rank / chunk: 1 MiB chunks
	qaoaShots   = 1 << 12
	oocPrefetch = 4
	ckptKeep    = 2
	seedStride  = 1_000_003
	sampleSalt  = 0x5eed
)

var workloads = []*workload{
	{name: "supremacy-f64", qubits: supremacyQubits, amp: 16, circuit: supremacyF64},
	{name: "supremacy-f32", qubits: supremacyQubits, amp: 8, circuit: supremacyF32},
	// Ranks are goroutines multiplexed onto nproc threads; each runs its
	// kernels with one par worker so the ranks, not the pool, provide
	// the parallelism.
	{name: "qaoa-dist", qubits: qaoaQubits, amp: 16, workers: 1, circuit: qaoaDist},
	{name: "qaoa-ooc", qubits: qaoaQubits, amp: 16, circuit: qaoaOOC},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// circuitSeed derives input i's seed from the run seed.
func circuitSeed(seed int64, i int) int64 { return seed*seedStride + int64(i) }

// supremacyCircuit is the paper's Fig. 1 random circuit, started from the
// uniform state that replaces the first Hadamard cycle (Sec. 3.6).
func supremacyCircuit(seed int64, i int) *circuit.Circuit {
	rows, cols := circuit.GridForQubits(supremacyQubits)
	return circuit.Supremacy(circuit.SupremacyOptions{
		Rows: rows, Cols: cols, Depth: supremacyDepth,
		Seed: circuitSeed(seed, i), SkipInitialH: true,
	})
}

// qaoaCircuit is point i of the seeded MaxCut-ring sweep. Point 0 of
// circuit.SweepParams is the all-zeros anchor, which schedules to a
// different shape; the sweep starts at point 1 so every input has the
// same structure and the same cost.
func qaoaCircuit(seed int64, i int) *circuit.Circuit {
	set := circuit.SweepParams(seed, i+2, 2*qaoaLayers)[i+1]
	return circuit.QAOAMaxCutRing(qaoaQubits, set[:qaoaLayers], set[qaoaLayers:])
}

// build generates circuit c and schedules it with the paper's defaults
// at l local qubits, inside spans.
func build(e *env, gen func() *circuit.Circuit, l int) (*schedule.Plan, error) {
	var c *circuit.Circuit
	e.tr.call("circuit.generate", func() error { c = gen(); return nil })
	var plan *schedule.Plan
	_, err := e.tr.call("schedule.Build", func() (err error) {
		plan, err = schedule.Build(c, schedule.DefaultOptions(l))
		return err
	})
	return plan, err
}

// xebReadout is the supremacy answer: the ideal samples' linear XEB.
func xebReadout(e *env, n int, probs []float64, seed int64) (float64, error) {
	var score float64
	_, err := e.tr.call("xeb.Sample+LinearXEB", func() error {
		samples, err := xeb.Sample(probs, xebShots, rand.New(rand.NewSource(seed^sampleSalt)))
		if err != nil {
			return err
		}
		score, err = xeb.LinearXEB(n, probs, samples)
		return err
	})
	return score, err
}

func supremacyF64(e *env, i int) (*sample, error) {
	s := &sample{}
	n := supremacyQubits
	var plan *schedule.Plan
	var v *statevec.Vector
	var err error
	s.setups, err = e.setUp(func() (err error) {
		if plan, err = build(e, func() *circuit.Circuit { return supremacyCircuit(e.seed, i) }, n); err != nil {
			return err
		}
		e.tr.call("statevec.NewUniform", func() error { v = statevec.NewUniform(n); return nil })
		return nil
	}, func() { v = nil })
	if err != nil {
		return nil, err
	}

	readout := func(v *statevec.Vector) (probs []float64, score float64, err error) {
		_, err = e.tr.call("xeb.readout", func() (err error) {
			e.tr.call("statevec.Probabilities", func() error { probs = v.Probabilities(); return nil })
			score, err = xebReadout(e, n, probs, circuitSeed(e.seed, i))
			return err
		})
		return probs, score, err
	}
	var probs []float64
	var score float64
	s.solve, err = e.tr.call("solve", func() error {
		err := e.tr.call1("schedule.Plan.Run", func() error {
			// Only traced runs arm the pool's sink, and only here.
			par.SetTelemetry(e.tel)
			defer par.SetTelemetry(nil)
			return plan.Run(v)
		})
		if err != nil {
			return err
		}
		probs, score, err = readout(v)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Resume drill: a single-stage plan's newest snapshot is the state
	// after its last stage, so resuming restores it and reads out again.
	dir, err := e.dir("ckpt")
	if err != nil {
		return nil, err
	}
	meta := ckpt.Meta{PlanHash: plan.Fingerprint(), N: n, L: n, Ranks: 1, NextStage: plan.Stages()}
	if _, err := e.tr.call("ckpt.SaveState", func() error {
		_, err := ckpt.SaveState(dir, meta, v.Amps, ckptKeep)
		return err
	}); err != nil {
		return nil, err
	}
	var probs2 []float64
	var score2 float64
	s.resumes, err = e.resume(func() error {
		man, err := findSnapshot(e, dir, meta)
		if err != nil {
			return err
		}
		w := statevec.FromAmplitudes(make([]complex128, 1<<n))
		if err := e.tr.call1("ckpt.RestoreState", func() error { return ckpt.RestoreState(dir, man, w.Amps) }); err != nil {
			return err
		}
		if err := e.tr.call1("schedule.Plan.RunFrom", func() error { return plan.RunFrom(w, man.NextStage) }); err != nil {
			return err
		}
		probs2, score2, err = readout(w)
		return err
	}, func() { checkResume(&s.resumeFail, probs, probs2, score, score2) })
	if err != nil {
		return nil, err
	}
	s.peak = peakBytes()

	ref := gateByGate(e, supremacyCircuit(e.seed, i))
	checkReference(&s.solveFail, ref.Amps, plan.FinalPos, func(y int) complex128 { return v.Amps[y] }, tolF64)
	checkSupremacy(&s.solveFail, n, probs, tolF64, score, xebShots)
	if e.tr != nil {
		s.traceSupremacy(e, plan)
	}
	return s, nil
}

func supremacyF32(e *env, i int) (*sample, error) {
	s := &sample{}
	n := supremacyQubits
	var plan *schedule.Plan
	var v *f32vec.Vector
	var err error
	s.setups, err = e.setUp(func() (err error) {
		if plan, err = build(e, func() *circuit.Circuit { return supremacyCircuit(e.seed, i) }, n); err != nil {
			return err
		}
		e.tr.call("f32vec.NewUniform", func() error { v = f32vec.NewUniform(n); return nil })
		return nil
	}, func() { v = nil })
	if err != nil {
		return nil, err
	}

	readout := func(amps []complex64) (probs []float64, score float64, err error) {
		_, err = e.tr.call("xeb.readout", func() (err error) {
			e.tr.call("f32vec.probabilities", func() error { probs = probsF32(amps); return nil })
			score, err = xebReadout(e, n, probs, circuitSeed(e.seed, i))
			return err
		})
		return probs, score, err
	}
	var probs []float64
	var score float64
	s.solve, err = e.tr.call("solve", func() error {
		if err := e.tr.call1("f32vec.RunPlan", func() error { return v.RunPlan(plan) }); err != nil {
			return err
		}
		probs, score, err = readout(v.Amps)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Resume drill, as for supremacy-f64. The snapshot format holds
	// complex128, which represents every complex64 exactly, so the state
	// streams through a small conversion buffer in both directions.
	dir, err := e.dir("ckpt")
	if err != nil {
		return nil, err
	}
	meta := ckpt.Meta{PlanHash: plan.Fingerprint(), N: n, L: n, Ranks: 1, NextStage: plan.Stages()}
	if _, err := e.tr.call("ckpt.write", func() error { return saveF32(dir, meta, v.Amps) }); err != nil {
		return nil, err
	}
	var probs2 []float64
	var score2 float64
	s.resumes, err = e.resume(func() error {
		man, err := findSnapshot(e, dir, meta)
		if err != nil {
			return err
		}
		w := make([]complex64, 1<<n)
		if err := e.tr.call1("ckpt.read", func() error { return restoreF32(dir, man, w) }); err != nil {
			return err
		}
		// The snapshot follows the last stage: nothing is left to run.
		probs2, score2, err = readout(w)
		return err
	}, func() { checkResume(&s.resumeFail, probs, probs2, score, score2) })
	if err != nil {
		return nil, err
	}
	s.peak = peakBytes()

	ref := gateByGate(e, supremacyCircuit(e.seed, i))
	checkReference(&s.solveFail, ref.Amps, plan.FinalPos, func(y int) complex128 { return complex128(v.Amps[y]) }, tolF32)
	checkSupremacy(&s.solveFail, n, probs, tolF32, score, xebShots)
	if e.tr != nil {
		s.traceF32(e, plan)
	}
	return s, nil
}

func qaoaDist(e *env, i int) (*sample, error) {
	s := &sample{}
	var plan *schedule.Plan
	var pol *ckpt.Policy
	var err error
	s.setups, err = e.setUp(func() (err error) {
		if plan, err = build(e, func() *circuit.Circuit { return qaoaCircuit(e.seed, i) }, qaoaLocal); err != nil {
			return err
		}
		dir, err := e.dir("ckpt")
		pol = &ckpt.Policy{Dir: dir, EveryStages: 1, Keep: ckptKeep}
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}

	opts := dist.Options{
		Ranks: qaoaRanks, Init: dist.InitZero, Checkpoint: pol,
		SampleShots: qaoaShots, SampleSeed: circuitSeed(e.seed, i) ^ sampleSalt,
		Telemetry: e.tel, Profile: e.tr != nil,
	}
	var res, res2 *dist.Result
	var cut, cut2 float64
	s.solve, err = e.tr.call("solve", func() (err error) {
		if err := e.tr.call1("dist.Run", func() (err error) { res, err = dist.Run(plan, opts); return err }); err != nil {
			return err
		}
		cut = meanCut(res.Samples, circuit.RingEdges(qaoaQubits))
		return nil
	})
	if err != nil {
		return nil, err
	}
	mid := sinks(e.tel)

	// Resume drill: a restarted process continues from the newest
	// snapshot, the boundary before the last stage, and finishes the run.
	resumeOpts := opts
	resumeOpts.Resume = true
	s.resumes, err = e.resume(func() error {
		if err := e.tr.call1("dist.Run", func() (err error) { res2, err = dist.Run(plan, resumeOpts); return err }); err != nil {
			return err
		}
		cut2 = meanCut(res2.Samples, circuit.RingEdges(qaoaQubits))
		return nil
	}, func() {
		c := &s.resumeFail
		c.within("snapshots restored", float64(res2.CheckpointsRestored), 1, 1)
		c.same("resumed norm", res2.Norm, res.Norm)
		c.same("resumed entropy", res2.Entropy, res.Entropy)
		c.same("resumed sampled cut", cut2, cut)
	})
	if err != nil {
		return nil, err
	}
	s.peak = peakBytes()

	ref, _, err := reference(e, plan)
	if err != nil {
		return nil, err
	}
	refProbs := ref.Probabilities()
	refEnt, _ := entropy(refProbs)
	checkQAOA(&s.solveFail, res.Norm, res.Entropy, refEnt, refProbs, plan.FinalPos, res.Samples)
	if e.tr != nil {
		s.traceDist(e, plan, res, res2, mid)
	}
	return s, nil
}

func qaoaOOC(e *env, i int) (*sample, error) {
	s := &sample{}
	var plan *schedule.Plan
	var v *oocvec.Vector
	newVector := func() (*oocvec.Vector, error) {
		dir, err := e.dir("ooc")
		if err != nil {
			return nil, err
		}
		var v *oocvec.Vector
		_, err = e.tr.call("oocvec.New", func() (err error) { v, err = oocvec.New(qaoaQubits, qaoaLocal, dir); return err })
		if err != nil {
			return nil, err
		}
		v.SetPrefetch(oocPrefetch)
		v.SetTelemetry(e.tel)
		return v, nil
	}
	var err error
	s.setups, err = e.setUp(func() (err error) {
		if plan, err = build(e, func() *circuit.Circuit { return qaoaCircuit(e.seed, i) }, qaoaLocal); err != nil {
			return err
		}
		v, err = newVector()
		return err
	}, func() { v.Close() })
	if err != nil {
		return nil, err
	}
	defer v.Close()

	readout := func(v *oocvec.Vector) (ent, norm float64, err error) {
		_, err = e.tr.call("oocvec.readout", func() error {
			if ent, err = v.Entropy(); err != nil {
				return err
			}
			norm, err = v.Norm()
			return err
		})
		return ent, norm, err
	}
	var ent, norm float64
	s.solve, err = e.tr.call("solve", func() error {
		if err := e.tr.call1("oocvec.Run", func() error { return v.Run(plan) }); err != nil {
			return err
		}
		ent, norm, err = readout(v)
		return err
	})
	if err != nil {
		return nil, err
	}
	mid := sinks(e.tel)

	// Resume drill: snapshot the finished state, then a fresh vector — a
	// restarted process — restores it and reads out again.
	dir, err := e.dir("ckpt")
	if err != nil {
		return nil, err
	}
	if _, err := e.tr.call("oocvec.Checkpoint", func() error {
		return v.Checkpoint(dir, plan, plan.Stages(), ckptKeep)
	}); err != nil {
		return nil, err
	}
	var ent2, norm2 float64
	var restored int
	s.resumes, err = e.resume(func() error {
		w, err := newVector()
		if err != nil {
			return err
		}
		defer w.Close()
		if err := e.tr.call1("oocvec.RunCheckpointed", func() (err error) {
			restored, _, err = w.RunCheckpointed(plan, &ckpt.Policy{Dir: dir, Keep: ckptKeep}, true)
			return err
		}); err != nil {
			return err
		}
		ent2, norm2, err = readout(w)
		return err
	}, func() {
		c := &s.resumeFail
		c.within("restored stage", float64(restored), float64(plan.Stages()), float64(plan.Stages()))
		c.same("resumed norm", norm2, norm)
		c.same("resumed entropy", ent2, ent)
	})
	if err != nil {
		return nil, err
	}
	s.peak = peakBytes()

	ref, refTime, err := reference(e, plan)
	if err != nil {
		return nil, err
	}
	refEnt, _ := entropy(ref.Probabilities())
	checkQAOA(&s.solveFail, norm, ent, refEnt, nil, plan.FinalPos, nil)
	if e.tr != nil {
		s.traceOOC(e, plan, mid, refTime)
	}
	return s, nil
}

// findSnapshot locates the newest restorable snapshot of meta's run.
func findSnapshot(e *env, dir string, meta ckpt.Meta) (*ckpt.Manifest, error) {
	var man *ckpt.Manifest
	err := e.tr.call1("ckpt.FindRestorable", func() (err error) { man, err = ckpt.FindRestorable(dir, meta); return err })
	if err == nil && man == nil {
		err = errors.New("no restorable snapshot")
	}
	return man, err
}

// reference runs plan in memory with Plan.Run from |0…0⟩ on the full par
// pool. It is the oracle of the QAOA checks and is neither timed as part
// of the workload nor inside its memory high-water mark.
func reference(e *env, plan *schedule.Plan) (*statevec.Vector, float64, error) {
	prev := par.SetWorkers(e.nproc)
	defer par.SetWorkers(prev)
	ref := statevec.New(plan.N)
	d, err := e.tr.call("reference.Plan.Run", func() error { return plan.Run(ref) })
	return ref, d.Seconds(), err
}

// gateByGate runs c one gate at a time from the uniform state on the
// Naive kernel variant, bypassing the scheduler, fusion, the executors and
// the optimised kernels: the oracle of the supremacy checks. Like the
// QAOA reference it is neither timed nor inside the memory high-water
// mark.
func gateByGate(e *env, c *circuit.Circuit) *statevec.Vector {
	v := statevec.NewUniform(c.N)
	v.Variant = kernels.Naive
	e.tr.call("reference.gate-by-gate", func() error {
		for j := range c.Gates {
			g := &c.Gates[j]
			v.Apply(g.Matrix(), g.Qubits...)
		}
		return nil
	})
	return v
}

// probsF32 returns the output probabilities of a complex64 state.
func probsF32(amps []complex64) []float64 {
	probs := make([]float64, len(amps))
	for j, a := range amps {
		re, im := float64(real(a)), float64(imag(a))
		probs[j] = re*re + im*im
	}
	return probs
}

// f32Block is the conversion buffer of the complex64 snapshot path.
const f32Block = 1 << 16

// saveF32 commits a single-shard snapshot of a complex64 state.
func saveF32(dir string, meta ckpt.Meta, amps []complex64) error {
	sw, err := ckpt.NewShardWriter(dir, meta, 0, len(amps))
	if err != nil {
		return err
	}
	buf := make([]complex128, f32Block)
	for lo := 0; lo < len(amps); lo += f32Block {
		b := buf[:min(f32Block, len(amps)-lo)]
		for j := range b {
			b[j] = complex128(amps[lo+j])
		}
		if err := sw.Write(b); err != nil {
			sw.Abort()
			return err
		}
	}
	info, err := sw.Close()
	if err != nil {
		return err
	}
	_, err = ckpt.Commit(dir, meta, []ckpt.ShardInfo{info}, ckptKeep)
	return err
}

// restoreF32 streams the single shard of man into a complex64 state.
func restoreF32(dir string, man *ckpt.Manifest, dst []complex64) error {
	sr, err := ckpt.OpenShard(dir, man, 0)
	if err != nil {
		return err
	}
	if sr.Amps() != len(dst) {
		sr.Close()
		return fmt.Errorf("snapshot holds %d amplitudes, state has %d", sr.Amps(), len(dst))
	}
	buf := make([]complex128, f32Block)
	for lo := 0; lo < len(dst); lo += f32Block {
		b := buf[:min(f32Block, len(dst)-lo)]
		if err := sr.Read(b); err != nil {
			sr.Close()
			return err
		}
		for j, a := range b {
			dst[lo+j] = complex64(a)
		}
	}
	return sr.Close()
}
