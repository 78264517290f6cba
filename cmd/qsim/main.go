// Command qsim simulates quantum circuits — single-node or across simulated
// MPI ranks with the paper's scheduling optimizations.
//
// Examples:
//
//	qsim -qubits 20 -depth 25                 # supremacy circuit, 1 rank
//	qsim -qubits 24 -depth 25 -ranks 8        # distributed, 8 ranks
//	qsim -circuit qft -qubits 20              # QFT
//	qsim -file circ.txt -ranks 4 -baseline    # per-gate reference scheme
//	qsim -qubits 24 -ranks 8 -checkpoint-dir ck          # snapshot at stage boundaries
//	qsim -qubits 24 -ranks 8 -checkpoint-dir ck -resume  # continue after a crash
//	qsim -qubits 20 -ranks 4 -trace out.json -metrics    # per-rank trace + metrics dump
//	qsim -qubits 28 -ooc -ooc-chunk 22                   # out-of-core, prefetch pipeline (depth 4)
//	qsim -qubits 28 -ooc -ooc-chunk 22 -ooc-prefetch 0   # out-of-core, reactive one pass per op
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"time"

	"qusim/internal/circuit"
	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/f32vec"
	"qusim/internal/kernels"
	"qusim/internal/oocvec"
	"qusim/internal/par"
	"qusim/internal/schedule"
	"qusim/internal/telemetry"
)

func main() {
	var (
		kind      = flag.String("circuit", "supremacy", "circuit family: supremacy, qft, ghz, bv, random")
		qubits    = flag.Int("qubits", 20, "number of qubits")
		depth     = flag.Int("depth", 25, "supremacy circuit depth (clock cycles after the Hadamard layer)")
		seed      = flag.Int64("seed", 0, "random seed")
		ranks     = flag.Int("ranks", 1, "simulated MPI ranks (power of two)")
		kmax      = flag.Int("kmax", schedule.DefaultOptions(0).KMax, "upper bound on fused-gate size (at most 5, the cost table's range; clamped to local qubits); smaller clusters are chosen when the cost table says they are faster")
		f32       = flag.Bool("f32", false, "single-precision (complex64) state vector — half the memory per amplitude, single node only")
		baseline  = flag.Bool("baseline", false, "use the per-gate scheme of [5] instead of scheduling")
		spec1q    = flag.Bool("spec1q", false, "specialize diagonal 1-qubit gates (median-hard mode)")
		file      = flag.String("file", "", "read circuit from file (GRCS-like text format)")
		planFile  = flag.String("plan", "", "execute a plan saved by qsched -save instead of scheduling")
		tune      = flag.Bool("tune", false, "run the kernel autotuner first")
		tuneCache = flag.String("tune-cache", "", "with -tune: persist autotuner selections to this JSON file; a warm cache skips the benchmark sweep")
		workers   = flag.Int("workers", 0, "parallel workers per rank (0 = GOMAXPROCS)")
		shots     = flag.Int("sample", 0, "draw this many samples from the output distribution")
		profile   = flag.Bool("profile", false, "print a per-op-kind time breakdown")
		verbose   = flag.Bool("v", false, "print the plan summary")

		ckptDir   = flag.String("checkpoint-dir", "", "commit crash-consistent snapshots into this directory at stage boundaries")
		ckptEvery = flag.Int("checkpoint-every", 1, "snapshot every N completed stages")
		resume    = flag.Bool("resume", false, "resume from the newest valid snapshot in -checkpoint-dir")
		commDL    = flag.Duration("comm-deadline", 0, "abort a run whose collectives stall longer than this (0 = rely on exact dead-rank detection)")

		traceFile = flag.String("trace", "", "write per-rank Chrome trace-event JSON to this file (open in chrome://tracing)")
		metrics   = flag.Bool("metrics", false, "print the telemetry metrics dump after the run")

		ooc         = flag.Bool("ooc", false, "run out-of-core: state in a file, processed in chunks")
		oocChunk    = flag.Int("ooc-chunk", 0, "out-of-core chunk qubits l (2^l amplitudes in memory; default qubits-4)")
		oocPrefetch = flag.Int("ooc-prefetch", 4, "chunks prefetched ahead of compute; each stage runs as one fused streamed pass (0 = reactive, one pass per op)")
		oocDir      = flag.String("ooc-dir", "", "directory for the out-of-core state file (default: system temp)")
	)
	flag.Parse()
	if *workers > 0 {
		par.SetWorkers(*workers)
	}

	// -trace / -metrics arm the telemetry layer across every subsystem; the
	// pool and checkpoint hooks are process-global, the engine hook rides in
	// dist.Options.
	tel := telemetry.Disabled
	if *traceFile != "" || *metrics {
		tel = telemetry.New()
		par.SetTelemetry(tel)
		ckpt.SetTelemetry(tel)
	}

	circ, err := buildCircuit(*kind, *qubits, *depth, *seed, *file)
	if err != nil {
		fatal(err)
	}
	if *ranks < 1 || *ranks&(*ranks-1) != 0 {
		fatal(fmt.Errorf("ranks must be a power of two, got %d", *ranks))
	}
	if *tune {
		var res kernels.TuneResult
		if *tuneCache != "" {
			cached, hit, terr := kernels.TuneCached(*tuneCache, 5, 20, 2)
			if terr != nil {
				fmt.Fprintf(os.Stderr, "qsim: tuner cache: %v\n", terr)
			}
			if hit {
				fmt.Printf("autotuner: cache hit (%s), skipping benchmark sweep\n", *tuneCache)
			} else {
				fmt.Printf("autotuning kernels (cache -> %s)...\n", *tuneCache)
			}
			res = cached
		} else {
			fmt.Println("autotuning kernels...")
			res = kernels.Tune(5, 20, 2)
		}
		for _, t := range res.Timings {
			if t.Best {
				prec := "f64"
				if t.F32 {
					prec = "f32"
				}
				fmt.Printf("  k=%d %s %s-stride -> %s (%.2f ms/sweep)\n",
					t.K, prec, t.Stride, t.Variant, t.NsPerApply/1e6)
			}
		}
	}

	if *f32 {
		if *ranks != 1 || *baseline || *ooc {
			fatal(fmt.Errorf("-f32 runs single-node in memory (not with -ranks > 1, -baseline or -ooc)"))
		}
		runF32(circ, *kmax, *spec1q, *planFile, *verbose)
		flushTelemetry(tel, *traceFile, *metrics)
		return
	}

	if *ooc {
		runOutOfCore(circ, tel, oocOptions{
			chunk: *oocChunk, prefetch: *oocPrefetch, dir: *oocDir,
			kmax: *kmax, spec1q: *spec1q, planFile: *planFile, verbose: *verbose,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
		})
		flushTelemetry(tel, *traceFile, *metrics)
		return
	}

	if *baseline {
		res, err := dist.RunBaseline(circ, dist.BaselineOptions{
			Ranks: *ranks, Init: dist.InitUniform, Specialize2Q: true, Specialize1Q: *spec1q,
			Telemetry: tel,
		})
		if err != nil {
			fatal(err)
		}
		report(circ, res, nil)
		flushTelemetry(tel, *traceFile, *metrics)
		return
	}

	var plan *schedule.Plan
	if *planFile != "" {
		f, err := os.Open(*planFile)
		if err != nil {
			fatal(err)
		}
		plan, err = schedule.ReadPlan(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		g := bits.TrailingZeros(uint(*ranks))
		opts := schedule.DefaultOptions(circ.N - g)
		opts.KMax = clampKMax(*kmax, circ.N-g)
		opts.SpecializeDiagonal1Q = *spec1q
		var err error
		plan, err = schedule.Build(circ, opts)
		if err != nil {
			fatal(err)
		}
	}
	if *verbose {
		fmt.Print(plan.Summary())
	}
	opts := dist.Options{
		Ranks: *ranks, Init: dist.InitUniform,
		SampleShots: *shots, SampleSeed: *seed, Profile: *profile,
		Resume: *resume, CommDeadline: *commDL,
		Telemetry: tel,
	}
	if *ckptDir != "" {
		opts.Checkpoint = &ckpt.Policy{Dir: *ckptDir, EveryStages: *ckptEvery}
	} else if *resume {
		fatal(fmt.Errorf("-resume needs -checkpoint-dir"))
	}
	res, err := dist.Run(plan, opts)
	if err != nil {
		fatal(err)
	}
	report(circ, res, plan)
	if *ckptDir != "" {
		fmt.Printf("ckpt:    %d snapshots committed, %d restored, %d restarts\n",
			res.CheckpointsWritten, res.CheckpointsRestored, res.Restarts)
	}
	if *profile {
		fmt.Println("profile (slowest rank):")
		for _, e := range res.Profile {
			if e.Ops == 0 {
				continue
			}
			fmt.Printf("  %-8s %4d ops  %8.3fs\n", e.Kind, e.Ops, e.Duration.Seconds())
		}
	}
	if *shots > 0 {
		fmt.Printf("samples (%d shots, first 10):\n", *shots)
		for i, b := range res.Samples {
			if i == 10 {
				break
			}
			fmt.Printf("  |%0*b⟩\n", circ.N, b)
		}
	}
	flushTelemetry(tel, *traceFile, *metrics)
}

// flushTelemetry writes the trace file and/or prints the metrics dump once
// the run (scheduled or baseline) has completed.
//
//qlint:ignore atomicrename the trace export is observability output, not checkpoint durability data; a torn write costs a trace, not a snapshot
func flushTelemetry(tel *telemetry.Telemetry, traceFile string, metrics bool) {
	if !tel.Enabled() {
		return
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fatal(err)
		}
		if err := tel.WriteTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:   %d spans -> %s (open in chrome://tracing)\n", tel.SpanCount(), traceFile)
	}
	if metrics {
		fmt.Println("metrics:")
		if err := tel.WriteMetrics(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

type oocOptions struct {
	chunk, prefetch int
	dir             string
	kmax            int
	spec1q          bool
	planFile        string
	verbose         bool
	ckptDir         string
	ckptEvery       int
	resume          bool
}

// runOutOfCore executes the circuit on the file-backed engine: the plan is
// scheduled at l = chunk local qubits (chunk-index bits play the role of
// the global qubits) and, with -ooc-prefetch > 0, runs through the
// circuit-aware prefetch pipeline.
func runOutOfCore(circ *circuit.Circuit, tel *telemetry.Telemetry, o oocOptions) {
	l := o.chunk
	if l == 0 {
		l = circ.N - 4
	}
	var plan *schedule.Plan
	if o.planFile != "" {
		f, err := os.Open(o.planFile)
		if err != nil {
			fatal(err)
		}
		var perr error
		plan, perr = schedule.ReadPlan(f)
		f.Close()
		if perr != nil {
			fatal(perr)
		}
	} else {
		opts := schedule.DefaultOptions(l)
		opts.KMax = clampKMax(o.kmax, l)
		opts.SpecializeDiagonal1Q = o.spec1q
		var err error
		plan, err = schedule.Build(circ, opts)
		if err != nil {
			fatal(err)
		}
	}
	if o.verbose {
		fmt.Print(plan.Summary())
	}
	v, err := oocvec.NewUniform(plan.N, plan.L, o.dir)
	if err != nil {
		fatal(err)
	}
	defer v.Close()
	v.SetPrefetch(o.prefetch)
	v.SetTelemetry(tel)

	start := time.Now()
	restored, written := -1, 0
	if o.ckptDir != "" {
		pol := &ckpt.Policy{Dir: o.ckptDir, EveryStages: o.ckptEvery}
		restored, written, err = v.RunCheckpointed(plan, pol, o.resume)
	} else {
		if o.resume {
			fatal(fmt.Errorf("-resume needs -checkpoint-dir"))
		}
		err = v.Run(plan)
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	norm, err := v.Norm()
	if err != nil {
		fatal(err)
	}
	ent, err := v.Entropy()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("circuit: %d qubits, %d gates\n", circ.N, len(circ.Gates))
	fmt.Printf("ooc:     2^%d chunks of 2^%d amplitudes (%.1f MB each), prefetch %d\n",
		plan.N-plan.L, plan.L, float64(uint64(16)<<plan.L)/1e6, v.Prefetch())
	printPlan(plan)
	fmt.Printf("result:  norm=%.12f entropy=%.6f nats\n", norm, ent)
	fmt.Printf("time:    %.3fs total\n", elapsed.Seconds())
	if reg := tel.Registry(); reg != nil {
		hits := reg.Counter("oocvec.prefetch_hits").Value()
		misses := reg.Counter("oocvec.prefetch_misses").Value()
		if hits+misses > 0 {
			fmt.Printf("io:      %d chunks read, %d written, prefetch hits %d/%d (%.1f%%)\n",
				reg.Counter("oocvec.chunks_read").Value(),
				reg.Counter("oocvec.chunks_written").Value(),
				hits, hits+misses, 100*float64(hits)/float64(hits+misses))
		}
	}
	if o.ckptDir != "" {
		resumedFrom := "fresh start"
		if restored >= 0 {
			resumedFrom = fmt.Sprintf("resumed at stage %d", restored)
		}
		fmt.Printf("ckpt:    %d snapshots committed, %s\n", written, resumedFrom)
	}
}

// printPlan prints the plan line: clusters with how many of them run as
// diagonal passes, the globally specialized diagonals, and the state
// passes the executors make (one per op).
func printPlan(plan *schedule.Plan) {
	s := plan.Stats
	fmt.Printf("plan:    %d stages, %d swaps, %d clusters (%d diagonal, %.1f gates/cluster), %d global diag ops, %d state passes\n",
		s.Stages, s.Swaps, s.Clusters, s.DiagonalClusters, s.GatesPerCluster, s.DiagonalOps, len(plan.Ops))
}

// clampKMax bounds the -kmax flag by the local-qubit count so small runs
// still validate.
func clampKMax(kmax, l int) int {
	if kmax > l {
		return l
	}
	return kmax
}

// runF32 executes the circuit on the single-precision in-memory state — the
// paper's Sec. 5 outlook (half the bytes per amplitude, one more qubit in
// the same memory) — through the fused single-node schedule.
func runF32(circ *circuit.Circuit, kmax int, spec1q bool, planFile string, verbose bool) {
	var plan *schedule.Plan
	if planFile != "" {
		f, err := os.Open(planFile)
		if err != nil {
			fatal(err)
		}
		var perr error
		plan, perr = schedule.ReadPlan(f)
		f.Close()
		if perr != nil {
			fatal(perr)
		}
	} else {
		opts := schedule.DefaultOptions(circ.N)
		opts.KMax = clampKMax(kmax, circ.N)
		opts.SpecializeDiagonal1Q = spec1q
		var err error
		plan, err = schedule.Build(circ, opts)
		if err != nil {
			fatal(err)
		}
	}
	if verbose {
		fmt.Print(plan.Summary())
	}
	v := f32vec.NewUniform(circ.N)
	start := time.Now()
	if err := v.RunPlan(plan); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("circuit: %d qubits, %d gates\n", circ.N, len(circ.Gates))
	fmt.Printf("f32:     2^%d complex64 amplitudes, %.1f MB (%.1f MB in double precision)\n",
		circ.N, float64(uint64(f32vec.BytesPerAmplitude)<<circ.N)/1e6, float64(uint64(16)<<circ.N)/1e6)
	printPlan(plan)
	fmt.Printf("result:  norm=%.7f entropy=%.6f nats\n", v.Norm(), v.Entropy())
	fmt.Printf("time:    %.3fs total\n", elapsed.Seconds())
}

func buildCircuit(kind string, qubits, depth int, seed int64, file string) (*circuit.Circuit, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return circuit.ReadText(f)
	}
	switch kind {
	case "supremacy":
		r, c := circuit.GridForQubits(qubits)
		return circuit.Supremacy(circuit.SupremacyOptions{
			Rows: r, Cols: c, Depth: depth, Seed: seed, SkipInitialH: true, OmitFinalCZs: true,
		}), nil
	case "qft":
		return circuit.QFT(qubits), nil
	case "ghz":
		return circuit.GHZ(qubits), nil
	case "bv":
		return circuit.BernsteinVazirani(qubits, int(seed)%(1<<qubits)), nil
	case "random":
		return circuit.RandomCircuit(qubits, 12*qubits, seed), nil
	}
	return nil, fmt.Errorf("unknown circuit family %q (want supremacy, qft, ghz, bv or random)", kind)
}

func report(c *circuit.Circuit, res *dist.Result, plan *schedule.Plan) {
	fmt.Printf("circuit: %d qubits, %d gates\n", c.N, len(c.Gates))
	fmt.Printf("ranks:   %d (2^%d amplitudes each)\n", res.Ranks, res.LocalQubits)
	if plan != nil {
		printPlan(plan)
	}
	fmt.Printf("result:  norm=%.12f entropy=%.6f nats\n", res.Norm, res.Entropy)
	fmt.Printf("time:    %.3fs total, %.3fs comm (%.1f%%)\n",
		res.Elapsed.Seconds(), res.CommElapsed.Seconds(),
		100*res.CommElapsed.Seconds()/res.Elapsed.Seconds())
	fmt.Printf("comm:    %d steps, %.1f MB\n", res.CommSteps, float64(res.CommBytes)/1e6)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qsim: %v\n", err)
	os.Exit(1)
}
