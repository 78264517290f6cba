package qusim

// One testing.B benchmark per table and figure of the paper's evaluation
// (Sec. 4). Each benchmark exercises the code path that regenerates the
// corresponding result; `go run ./cmd/experiments all` prints the full
// paper-vs-reproduced tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/emulate"
	"qusim/internal/f32vec"
	"qusim/internal/gate"
	"qusim/internal/kernels"
	"qusim/internal/par"
	"qusim/internal/perfmodel"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

const benchState = 20 // 2^20 amplitudes = 16 MiB

func benchSupremacy(n, depth int) *circuit.Circuit {
	r, c := circuit.GridForQubits(n)
	return circuit.Supremacy(circuit.SupremacyOptions{
		Rows: r, Cols: c, Depth: depth, Seed: 0, SkipInitialH: true,
	})
}

// BenchmarkFig2KernelSteps measures the optimization-step progression of
// Fig. 2: the same 4-qubit gate through the naive, in-place, split and
// specialized kernels.
func BenchmarkFig2KernelSteps(b *testing.B) {
	u := gate.RandomUnitary(4, randRNG(1))
	qs := []int{0, 1, 2, 3}
	for _, v := range kernels.Variants() {
		b.Run(v.String(), func(b *testing.B) {
			amps := make([]complex128, 1<<benchState)
			amps[0] = 1
			scratch := make([]complex128, len(amps))
			b.SetBytes(int64(len(amps) * 16 * 2))
			b.ResetTimer()
			src, dst := amps, scratch
			for i := 0; i < b.N; i++ {
				if v == kernels.Naive {
					kernels.Apply(v, src, u.Data, qs, dst)
					src, dst = dst, src
				} else {
					kernels.Apply(v, src, u.Data, qs, nil)
				}
			}
			b.ReportMetric(perfmodel.KernelFlops(benchState, 4)/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
		})
	}
}

// BenchmarkFig5aScheduling times the scheduler across circuit depths — the
// pre-computation the paper reports terminates in 1–3 s on a laptop.
func BenchmarkFig5aScheduling(b *testing.B) {
	for _, depth := range []int{10, 25, 50} {
		c := benchSupremacy(42, depth)
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(c, schedule.DefaultOptions(30)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5bScheduling sweeps qubit counts at depth 25.
func BenchmarkFig5bScheduling(b *testing.B) {
	for _, n := range []int{30, 36, 42, 45, 49} {
		c := benchSupremacy(n, 25)
		b.Run(fmt.Sprintf("qubits%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(c, schedule.DefaultOptions(30)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6HighLowOrder measures every kernel size on low- vs
// high-order qubits (the cache-associativity contrast of Fig. 6/9).
func BenchmarkFig6HighLowOrder(b *testing.B) {
	for k := 1; k <= 5; k++ {
		u := gate.RandomUnitary(k, randRNG(int64(k)))
		for _, order := range []string{"low", "high"} {
			qs := make([]int, k)
			for i := range qs {
				if order == "low" {
					qs[i] = i
				} else {
					qs[i] = benchState - k + i
				}
			}
			b.Run(fmt.Sprintf("k%d/%s", k, order), func(b *testing.B) {
				amps := make([]complex128, 1<<benchState)
				amps[0] = 1
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kernels.Apply(kernels.Specialized, amps, u.Data, qs, nil)
				}
				b.ReportMetric(perfmodel.KernelFlops(benchState, k)/1e9/b.Elapsed().Seconds()*float64(b.N), "GFLOPS")
			})
		}
	}
}

// BenchmarkFig7Scaling measures kernel throughput as the worker count
// doubles (Fig. 7/10 strong scaling).
func BenchmarkFig7Scaling(b *testing.B) {
	u := gate.RandomUnitary(4, randRNG(4))
	qs := []int{0, 1, 2, 3}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			old := par.SetWorkers(workers)
			b.Cleanup(func() { par.SetWorkers(old) })
			amps := make([]complex128, 1<<benchState)
			amps[0] = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Apply(kernels.Specialized, amps, u.Data, qs, nil)
			}
		})
	}
}

// BenchmarkFig8MultiNode runs a scaled-down distributed simulation across
// simulated MPI ranks (Fig. 8).
func BenchmarkFig8MultiNode(b *testing.B) {
	for _, ranks := range []int{2, 4, 8} {
		c := benchSupremacy(16, 25)
		g := 0
		for 1<<g < ranks {
			g++
		}
		plan, err := schedule.Build(c, schedule.DefaultOptions(16-g))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dist.Run(plan, dist.Options{Ranks: ranks, Init: dist.InitUniform}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9EdisonKernels is the Edison variant of Fig. 6: kernels on a
// state sized to stress the last-level cache.
func BenchmarkFig9EdisonKernels(b *testing.B) {
	for _, k := range []int{3, 4, 5} {
		u := gate.RandomUnitary(k, randRNG(int64(90+k)))
		qs := make([]int, k)
		for i := range qs {
			qs[i] = benchState - k + i
		}
		b.Run(fmt.Sprintf("k%d-highorder", k), func(b *testing.B) {
			amps := make([]complex128, 1<<benchState)
			amps[0] = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Apply(kernels.Specialized, amps, u.Data, qs, nil)
			}
		})
	}
}

// BenchmarkFig10SingleWorker is the Edison strong-scaling anchor point: the
// full single-worker sweep a 1-qubit gate needs.
func BenchmarkFig10SingleWorker(b *testing.B) {
	u := gate.H()
	old := par.SetWorkers(1)
	b.Cleanup(func() { par.SetWorkers(old) })
	amps := make([]complex128, 1<<benchState)
	amps[0] = 1
	b.SetBytes(int64(len(amps) * 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Apply(kernels.Specialized, amps, u.Data, []int{0}, nil)
	}
}

// BenchmarkTable1Clustering times cluster building for each kmax.
func BenchmarkTable1Clustering(b *testing.B) {
	c := benchSupremacy(30, 25)
	for _, kmax := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("kmax%d", kmax), func(b *testing.B) {
			opts := schedule.DefaultOptions(30)
			opts.KMax = kmax
			opts.PassCost = nil // Table 1 is the paper's flat-cost greedy
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2FullRuns runs the scaled-down Table 2 comparison: the
// scheduled simulator vs the per-gate scheme, end to end.
func BenchmarkTable2FullRuns(b *testing.B) {
	c := benchSupremacy(16, 25)
	plan, err := schedule.Build(c, schedule.DefaultOptions(13))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scheduled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.Run(plan, dist.Options{Ranks: 8, Init: dist.InitUniform}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.RunBaseline(c, dist.BaselineOptions{
				Ranks: 8, Init: dist.InitUniform, Specialize2Q: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSpecialization compares scheduling with and without
// gate specialization (Sec. 3.5 ablation).
func BenchmarkAblationSpecialization(b *testing.B) {
	c := benchSupremacy(36, 25)
	for _, spec := range []bool{true, false} {
		b.Run(fmt.Sprintf("specialize=%v", spec), func(b *testing.B) {
			opts := schedule.DefaultOptions(30)
			opts.SpecializeDiagonal2Q = spec
			for i := 0; i < b.N; i++ {
				if _, err := schedule.Build(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFusion compares single-node execution with and without
// gate fusion (the Sec. 3.3 motivation for k-qubit kernels).
func BenchmarkAblationFusion(b *testing.B) {
	c := benchSupremacy(benchState, 25)
	for _, fusion := range []bool{true, false} {
		opts := schedule.DefaultOptions(benchState)
		opts.Clustering = fusion
		plan, err := schedule.Build(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fusion=%v", fusion), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := statevec.NewUniform(benchState)
				if err := plan.Run(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDiagonalFastPath measures the specialized diagonal sweep
// against the dense 2-qubit kernel applying the same CZ.
func BenchmarkAblationDiagonalFastPath(b *testing.B) {
	b.Run("diagonal", func(b *testing.B) {
		v := statevec.NewUniform(benchState)
		for i := 0; i < b.N; i++ {
			v.ApplyCZ(3, 11)
		}
	})
	b.Run("dense", func(b *testing.B) {
		v := statevec.NewUniform(benchState)
		cz := gate.CZ()
		for i := 0; i < b.N; i++ {
			v.ApplyDense(cz, 3, 11)
		}
	})
}

// BenchmarkPermute compares local qubit permutation as a SwapBits
// transposition chain (the pre-optimization implementation, one half-state
// sweep per transposition) against the single-pass compiled gather kernel
// (one read of the state plus one write, whatever the permutation). The
// "state-passes" metric reports the memory-traffic model: the chain costs
// one full-state pass per transposition, the gather always two.
func BenchmarkPermute(b *testing.B) {
	for _, n := range []int{benchState, 24} {
		perm := randRNG(int64(n)).Perm(n)
		passes := float64(swapChainSteps(perm))
		b.Run(fmt.Sprintf("n%d/swapchain", n), func(b *testing.B) {
			v := statevec.NewUniform(n)
			b.SetBytes(int64(16 << n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.PermuteBitsSwapChain(perm)
			}
			b.ReportMetric(passes, "state-passes")
		})
		b.Run(fmt.Sprintf("n%d/singlepass", n), func(b *testing.B) {
			v := statevec.NewUniform(n)
			v.PermuteBits(perm) // pre-allocate the scratch buffer
			b.SetBytes(int64(16 << n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.PermuteBits(perm)
			}
			b.ReportMetric(2, "state-passes")
		})
	}
}

// swapChainSteps counts the SwapBits sweeps PermuteBitsSwapChain issues for
// perm — each one touches half the amplitudes twice, i.e. one full-state
// pass of memory traffic.
func swapChainSteps(perm []int) int {
	n := len(perm)
	cur := make([]int, n)
	loc := make([]int, n)
	for i := range cur {
		cur[i] = i
		loc[i] = i
	}
	steps := 0
	for p := 0; p < n; p++ {
		want, have := perm[p], cur[p]
		if have == want {
			continue
		}
		steps++
		other := loc[want]
		cur[p], cur[other] = want, have
		loc[have], loc[want] = other, p
	}
	return steps
}

// BenchmarkSwapFusion compares a global-to-local swap with its preceding
// local permutation executed as a separate full-state pass against the
// fused op the scheduler now emits, where the permutation rides inside the
// all-to-all unpack as an indexed gather.
func BenchmarkSwapFusion(b *testing.B) {
	c := benchSupremacy(benchState, 25)
	plan, err := schedule.Build(c, schedule.DefaultOptions(benchState-3))
	if err != nil {
		b.Fatal(err)
	}
	var fusedOp *schedule.Op
	for i := range plan.Ops {
		if op := &plan.Ops[i]; op.Kind == schedule.OpSwap && op.Perm != nil {
			fusedOp = op
			break
		}
	}
	if fusedOp == nil {
		b.Skip("no fused swap in plan")
	}
	mini := func(ops []schedule.Op) *schedule.Plan {
		return &schedule.Plan{
			N: plan.N, L: plan.L, Ops: ops,
			InitialPos: plan.InitialPos, FinalPos: plan.InitialPos,
		}
	}
	split := *fusedOp
	split.Perm = nil
	separate := mini([]schedule.Op{
		{Kind: schedule.OpLocalPerm, Perm: fusedOp.Perm, Stage: fusedOp.Stage},
		split,
	})
	fused := mini([]schedule.Op{*fusedOp})
	for _, bc := range []struct {
		name string
		plan *schedule.Plan
	}{{"separate", separate}, {"fused", fused}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(16 << benchState))
			for i := 0; i < b.N; i++ {
				if _, err := dist.Run(bc.plan, dist.Options{Ranks: 8, Init: dist.InitUniform}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpoint records the checkpoint subsystem's cost baseline
// (BENCH_ckpt.json via make bench-ckpt): single-shard snapshot commit and
// verified restore throughput for a 16 MiB state, and the end-to-end
// overhead per-stage snapshots add to a distributed supremacy run — the
// plain/checkpointed pair yields the recorded slowdown factor.
func BenchmarkCheckpoint(b *testing.B) {
	const n = benchState
	state := statevec.NewUniform(n)
	meta := ckpt.Meta{PlanHash: "bench", N: n, L: n, Ranks: 1}

	b.Run("shard/write", func(b *testing.B) {
		dir := b.TempDir()
		b.SetBytes(int64(16 << n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ckpt.SaveState(dir, meta, state.Amps, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shard/restore", func(b *testing.B) {
		dir := b.TempDir()
		man, err := ckpt.SaveState(dir, meta, state.Amps, 2)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]complex128, 1<<n)
		b.SetBytes(int64(16 << n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ckpt.RestoreState(dir, man, dst); err != nil {
				b.Fatal(err)
			}
		}
	})

	c := benchSupremacy(n, 25)
	plan, err := schedule.Build(c, schedule.DefaultOptions(n-3))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dist/plain", func(b *testing.B) {
		b.SetBytes(int64(16 << n))
		for i := 0; i < b.N; i++ {
			if _, err := dist.Run(plan, dist.Options{Ranks: 8, Init: dist.InitUniform}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dist/checkpointed", func(b *testing.B) {
		b.SetBytes(int64(16 << n))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir() // fresh dir so every run commits, none resumes
			b.StartTimer()
			if _, err := dist.Run(plan, dist.Options{
				Ranks: 8, Init: dist.InitUniform,
				Checkpoint: &ckpt.Policy{Dir: dir},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTelemetryOverhead records the telemetry cost baseline
// (BENCH_telemetry.json via make bench-telemetry): the same distributed
// 20-qubit supremacy run with telemetry disabled (the nil-check no-op path
// every production run pays) and fully armed (spans + metrics across dist,
// mpi, par and ckpt). The disabled path must stay within 2% of the
// pre-instrumentation cost; the recorded enabled/disabled pair documents
// both numbers.
func BenchmarkTelemetryOverhead(b *testing.B) {
	const n = benchState
	c := benchSupremacy(n, 25)
	plan, err := schedule.Build(c, schedule.DefaultOptions(n-2))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, tel *telemetry.Telemetry) {
		if _, err := dist.Run(plan, dist.Options{
			Ranks: 4, Init: dist.InitUniform, Telemetry: tel,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		b.SetBytes(int64(16 << n))
		for i := 0; i < b.N; i++ {
			run(b, telemetry.Disabled)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.Cleanup(func() {
			par.SetTelemetry(telemetry.Disabled)
			ckpt.SetTelemetry(telemetry.Disabled)
		})
		b.SetBytes(int64(16 << n))
		for i := 0; i < b.N; i++ {
			tel := telemetry.New()
			par.SetTelemetry(tel)
			ckpt.SetTelemetry(tel)
			run(b, tel)
		}
	})
}

func randRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// precState sizes the precision benchmarks: 2^26 amplitudes = 1 GiB in
// complex128, far beyond the last-level cache, so the halved memory
// traffic of the single-precision path is visible the way Sec. 5 predicts
// rather than hidden by cache residency.
const precState = 26

// BenchmarkKernelPrecision records the f32-vs-f64 kernel baseline
// (BENCH_kernels.json via make bench-kernels): the same k-qubit random
// unitary at the same qubit positions through the double- and
// single-precision Specialized kernels. The f32/f64 leaf pairs yield the
// recorded speedups; bytes/op counts one read + one write of the state at
// the respective element width, so MB/s compares traffic, not progress.
func BenchmarkKernelPrecision(b *testing.B) {
	for k := 1; k <= 5; k++ {
		u := gate.RandomUnitary(k, randRNG(int64(40+k)))
		// Mid-register positions: strands of ≥ 2^6 amplitudes, so the pair
		// measures the steady-state sweep rather than per-block setup (the
		// q < 3 tail has its own pairwise path and is a vanishing fraction
		// of any real circuit's work).
		qs := make([]int, k)
		for i := range qs {
			qs[i] = 6 + 3*i
		}
		u32 := kernels.ToComplex64(u.Data)
		b.Run(fmt.Sprintf("k%d/f64", k), func(b *testing.B) {
			amps := make([]complex128, 1<<precState)
			amps[0] = 1
			b.SetBytes(int64(len(amps) * 16 * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Apply(kernels.Specialized, amps, u.Data, qs, nil)
			}
		})
		b.Run(fmt.Sprintf("k%d/f32", k), func(b *testing.B) {
			amps := make([]complex64, 1<<precState)
			amps[0] = 1
			b.SetBytes(int64(len(amps) * 8 * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.ApplyF32(kernels.Specialized, amps, u32, qs, nil)
			}
		})
	}
}

// BenchmarkCircuitPrecision records the end-to-end precision pair on the
// same circuit: a 24-qubit depth-25 supremacy instance (every gate k ≤ 2 —
// dense 1-qubit gates plus T/CZ diagonals) executed gate by gate in double
// and single precision. This is the headline f32-vs-f64 number of
// BENCH_kernels.json; the per-kernel pairs above decompose it.
func BenchmarkCircuitPrecision(b *testing.B) {
	const n = 24
	c := benchSupremacy(n, 25)
	b.Run("supremacy24/f64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := statevec.NewUniform(n)
			for j := range c.Gates {
				g := &c.Gates[j]
				v.Apply(g.Matrix(), g.Qubits...)
			}
		}
	})
	b.Run("supremacy24/f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := f32vec.NewUniform(n)
			for j := range c.Gates {
				g := &c.Gates[j]
				v.ApplyGate(g.Matrix(), g.Qubits...)
			}
		}
	})
}

// BenchmarkKernelFusion records the fused-vs-unfused execution baseline
// for the default scheduler (Sec. 3.3): the same supremacy circuit
// executed from a clustered plan (one kernel per cluster, sized by the
// default pass-cost table within kmax = 5) and from an unclustered plan
// (one kernel per gate). The fused/separate leaf pair yields the recorded
// speedup.
func BenchmarkKernelFusion(b *testing.B) {
	c := benchSupremacy(benchState, 25)
	plans := map[string]*schedule.Plan{}
	for name, clustering := range map[string]bool{"fused": true, "separate": false} {
		opts := schedule.DefaultOptions(benchState)
		opts.Clustering = clustering
		plan, err := schedule.Build(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		plans[name] = plan
	}
	for _, name := range []string{"separate", "fused"} {
		plan := plans[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := statevec.NewUniform(benchState)
				if err := plan.Run(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmulationVsGates reproduces the related-work comparison ([7]):
// FFT-based QFT emulation vs gate-by-gate simulation of the QFT circuit.
// Emulation is asymptotically cheaper but, as the paper notes, inapplicable
// to supremacy circuits.
func BenchmarkEmulationVsGates(b *testing.B) {
	n := 18
	c := circuit.QFT(n)
	b.Run("gates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := statevec.NewUniform(n)
			for j := range c.Gates {
				g := &c.Gates[j]
				v.Apply(g.Matrix(), g.Qubits...)
			}
		}
	})
	b.Run("emulated-fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := statevec.NewUniform(n)
			emulate.QFT(v, false)
		}
	})
}
