package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"qusim/internal/ckpt"
	"qusim/internal/dist"
	"qusim/internal/kernels"
	"qusim/internal/par"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
	"qusim/internal/telemetry"
)

// oocTracedCircuits is how many sweep points the traced run gives
// qaoa-ooc: the second shares the first's structure, so the plan-analysis
// cache has a lookup that can hit.
const oocTracedCircuits = 2

// tracedRun is the per-layer breakdown. Whatever workload is named, it
// traces input 0 of every workload (so each traced run reports every
// layer), plus the probes the layers are judged against: the host's STREAM
// bandwidth, kernel timings at the plan's op classes, a single-worker
// baseline and a run without checkpoints. The named workload's input 0
// also runs untraced first, which gives the tracing overhead.
func tracedRun(e *env, named *workload, h host, out string) (*report, error) {
	r := &report{}
	var t tally

	arrayBytes := streamArrayBytes(h.llcBytes)
	streamGBps := streamTriad(arrayBytes, h.nproc)
	coldStart()
	r.set("host.stream_gbps", "GB/s", streamGBps)
	r.set("host.stream_array_bytes", "bytes", float64(arrayBytes))
	r.set("host.llc_bytes", "bytes", float64(h.llcBytes))
	r.set("host.nproc", "count", float64(h.nproc))

	untraced, err := runCircuit(e, named, 0)
	if err != nil {
		return nil, fmt.Errorf("%s untraced: %w", named.name, err)
	}
	t.add(named.name+" untraced", untraced.solveFail)
	t.add(named.name+" untraced resume", untraced.resumeFail)

	tr := newTracer()
	var builds []float64
	for _, w := range workloads {
		n := 1
		if w.name == "qaoa-ooc" {
			n = oocTracedCircuits
			// Start cold whatever ran before, so the ratio does not depend
			// on which workload is named.
			schedule.FlushAccessCache()
		}
		cache := schedule.SnapshotAccessCache()
		for i := 0; i < n; i++ {
			tr.circuit = fmt.Sprintf("%s/%d", w.name, i)
			e.tr, e.tel = tr, telemetry.New()
			ckpt.SetTelemetry(e.tel)
			s, err := runCircuit(e, w, i)
			ckpt.SetTelemetry(nil)
			e.tr, e.tel = nil, nil
			if err != nil {
				return nil, fmt.Errorf("%s traced: %w", tr.circuit, err)
			}
			t.add(tr.circuit, s.solveFail)
			t.add(tr.circuit+" resume", s.resumeFail)
			builds = append(builds, tr.seconds(tr.circuit, "setup/schedule.Build"))
			if i > 0 {
				continue // later inputs only feed the cache ratio
			}
			for name, m := range s.layers {
				r.set(name, m.Unit, m.Value)
			}
			state := float64(w.amp << w.qubits)
			r.set("mem.state_bytes."+w.name, "bytes", state)
			r.set("mem.peak_over_state."+w.name, "ratio", float64(s.peak)/state)
			if w == named {
				r.set("trace.overhead_frac", "ratio", s.solve.Seconds()/untraced.solve.Seconds()-1)
			}
		}
		if w.name == "qaoa-ooc" {
			d := cache.Delta()
			lookups := d.Hits + d.Misses
			r.set("schedule.access_cache_lookups", "count", float64(lookups))
			r.set("schedule.access_cache_hit_ratio", "ratio", float64(d.Hits)/float64(max(lookups, 1)))
		}
	}
	r.set("schedule.build_s", "s", median(builds))
	// Arrays smaller than 4× the LLC (all that memory could hold) may
	// partly hit in cache, so no fraction is taken of their bandwidth.
	if arrayBytes >= 4*h.llcBytes {
		for _, p := range []string{"statevec", "f32vec"} {
			r.set(p+".bw_frac", "ratio", r.Metrics[p+".gbps_computed"].Value/streamGBps)
		}
	}
	t.into(r)
	if err := tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", named.name, e.seed))); err != nil {
		return nil, err
	}
	return r, nil
}

// layer records a traced layer metric.
func (s *sample) layer(name, unit string, v float64) {
	if s.layers == nil {
		s.layers = map[string]metric{}
	}
	s.layers[name] = metric{Value: v, Unit: unit}
}

// The in-program sinks the traced run reads: counters as counts, duration
// histograms as summed seconds.
var (
	sinkCounters = []string{
		"mpi.bytes", "mpi.steps", "mpi.checksums_verified",
		"ckpt.commits", "ckpt.shard_write_bytes", "ckpt.shard_read_bytes",
		"oocvec.chunks_read", "oocvec.chunks_written", "oocvec.prefetch_hits",
		"oocvec.prefetch_misses", "oocvec.io_retries", "par.steals",
	}
	sinkHistograms = []string{
		"ckpt.shard_write_ns", "ckpt.shard_read_ns", "ckpt.commit_ns",
		"mpi.alltoall_ns", "mpi.group_alltoall_ns", "mpi.group_alltoall_gather_ns",
		"mpi.barrier_ns", "mpi.allreduce_sum_ns", "mpi.allgather_float64_ns",
		"oocvec.read_ns", "oocvec.write_ns", "par.worker_idle_ns", "par.chunk_ns",
	}
)

// sinks reads the armed telemetry; nil on untraced runs.
func sinks(t *telemetry.Telemetry) map[string]float64 {
	if !t.Enabled() {
		return nil
	}
	m := map[string]float64{}
	for _, n := range sinkCounters {
		m[n] = float64(t.Counter(n).Value())
	}
	for _, n := range sinkHistograms {
		m[n] = float64(t.Histogram(n).Sum()) / 1e9
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (s *sample) traceSupremacy(e *env, plan *schedule.Plan) {
	c := e.tr.circuit
	pc := countPlan(plan)
	// Counted from the ops as they execute: a fused cluster that turns out
	// diagonal runs as a diagonal op here, while Plan.Stats still counts
	// it as a cluster.
	total := 0
	for k := 1; k <= 5; k++ {
		s.layer(fmt.Sprintf("schedule.cluster_k%d", k), "count", float64(pc.clusters[k]))
		total += pc.clusters[k]
	}
	s.layer("schedule.clusters", "count", float64(total))
	s.layer("schedule.diag_ops", "count", float64(pc.diagonals))
	s.layer("schedule.state_passes.supremacy", "count", float64(pc.statePasses))

	bytes, flops := kernelWork(plan, ampBytes)
	s.layer("kernels.bytes_computed", "bytes", float64(bytes))
	s.layer("kernels.flops_computed", "flop", float64(flops))
	s.layer("kernels.flops_per_byte", "flop/byte", float64(flops)/float64(bytes))

	run := e.tr.seconds(c, "solve/schedule.Plan.Run")
	s.layer("statevec.run_s", "s", run)
	s.layer("statevec.gbps_computed", "GB/s", float64(bytes)/run/1e9)
	s.layer("statevec.alloc_s", "s", e.tr.seconds(c, "setup/statevec.NewUniform"))
	s.layer("xeb.readout_s", "s", e.tr.seconds(c, "solve/xeb.readout"))

	tel := sinks(e.tel)
	s.layer("par.idle_frac", "ratio", ratio(tel["par.worker_idle_ns"], tel["par.worker_idle_ns"]+tel["par.chunk_ns"]))
	s.layer("par.steals", "count", tel["par.steals"])
	// The plain single-worker baseline against nproc workers, both
	// without the par sink.
	nprocRun := timePlanRun(plan, e.nproc)
	s.layer("par.speedup", "ratio", timePlanRun(plan, 1)/nprocRun)

	ns, diag := kernelNsPerAmp(plan, false)
	for k := 1; k <= 5; k++ {
		s.layer(fmt.Sprintf("kernels.f64.k%d_ns_per_amp", k), "ns", ns[k])
	}
	s.layer("kernels.f64.diag_ns_per_amp", "ns", diag)
}

func (s *sample) traceF32(e *env, plan *schedule.Plan) {
	bytes, _ := kernelWork(plan, ampBytes/2)
	run := e.tr.seconds(e.tr.circuit, "solve/f32vec.RunPlan")
	s.layer("f32vec.run_s", "s", run)
	s.layer("f32vec.gbps_computed", "GB/s", float64(bytes)/run/1e9)
	ns, diag := kernelNsPerAmp(plan, true)
	for k := 1; k <= 5; k++ {
		s.layer(fmt.Sprintf("kernels.f32.k%d_ns_per_amp", k), "ns", ns[k])
	}
	s.layer("kernels.f32.diag_ns_per_amp", "ns", diag)
}

// traceDist reads the qaoa-dist layers. mid holds the sink readings at the
// end of the solve, so the resume's ckpt reads are told apart.
func (s *sample) traceDist(e *env, plan *schedule.Plan, res, res2 *dist.Result, mid map[string]float64) {
	c := e.tr.circuit
	pc := countPlan(plan)
	end := sinks(e.tel)
	f := &s.solveFail
	state := stateBytes(plan)
	s.layer("schedule.stages", "count", float64(plan.Stages()))
	s.layer("schedule.swaps", "count", float64(pc.swaps))
	s.layer("schedule.state_passes.qaoa", "count", float64(pc.statePasses))

	f.exact("dist comm steps", int64(res.CommSteps), int64(pc.swaps))
	f.exact("dist comm bytes", res.CommBytes, pc.commBytes)
	f.exact("mpi.steps", int64(mid["mpi.steps"]), int64(pc.swaps))
	f.exact("mpi.bytes", int64(mid["mpi.bytes"]), pc.commBytes)
	f.exact("checkpoints written", int64(res.CheckpointsWritten), int64(pc.commits()))
	f.exact("ckpt.commits", int64(mid["ckpt.commits"]), int64(pc.commits()))
	f.exact("ckpt.shard_write_bytes", int64(mid["ckpt.shard_write_bytes"]), int64(pc.commits())*state)
	// The restart verifies every shard of the newest snapshot, then each
	// rank reads its own: the state's bytes twice.
	readBytes := int64(end["ckpt.shard_read_bytes"] - mid["ckpt.shard_read_bytes"])
	s.resumeFail.exact("ckpt.shard_read_bytes", readBytes, 2*state)

	run := e.tr.seconds(c, "solve/dist.Run")
	comm := res.CommElapsed.Seconds()
	s.layer("dist.run_s", "s", run)
	s.layer("dist.comm_s", "s", comm)
	s.layer("dist.comm_frac", "ratio", comm/res.Elapsed.Seconds())
	prof := map[string]float64{}
	for _, p := range res.Profile {
		prof[p.Kind] = p.Duration.Seconds()
	}
	s.layer("dist.cluster_s", "s", prof["cluster"])
	s.layer("dist.diag_s", "s", prof["diag"])
	s.layer("dist.swap_s", "s", prof["swap"])
	s.layer("dist.perm_s", "s", prof["perm"])
	s.layer("dist.restarts", "count", float64(res.Restarts+res2.Restarts))

	ranks := float64(qaoaRanks)
	s.layer("mpi.comm_bytes", "bytes", float64(res.CommBytes))
	s.layer("mpi.comm_steps", "count", float64(res.CommSteps))
	s.layer("mpi.gbps", "GB/s", float64(res.CommBytes)/comm/1e9)
	s.layer("mpi.alltoall_s", "s", (mid["mpi.alltoall_ns"]+mid["mpi.group_alltoall_ns"]+mid["mpi.group_alltoall_gather_ns"])/ranks)
	s.layer("mpi.barrier_s", "s", mid["mpi.barrier_ns"]/ranks)
	s.layer("mpi.allreduce_s", "s", (mid["mpi.allreduce_sum_ns"]+mid["mpi.allgather_float64_ns"])/ranks)
	s.layer("mpi.checksums_verified", "count", mid["mpi.checksums_verified"])

	written := mid["ckpt.shard_write_bytes"]
	s.layer("ckpt.commits", "count", mid["ckpt.commits"])
	s.layer("ckpt.bytes_written", "bytes", written)
	s.layer("ckpt.write_s", "s", mid["ckpt.shard_write_ns"])
	s.layer("ckpt.commit_s", "s", mid["ckpt.commit_ns"])
	s.layer("ckpt.write_gbps", "GB/s", ratio(written, mid["ckpt.shard_write_ns"])/1e9)
	s.layer("ckpt.skipped", "count", float64(res.CheckpointsSkipped+res2.CheckpointsSkipped))
	readS := end["ckpt.shard_read_ns"] - mid["ckpt.shard_read_ns"]
	s.layer("ckpt.bytes_read", "bytes", float64(readBytes))
	s.layer("ckpt.read_s", "s", readS)
	s.layer("ckpt.read_gbps", "GB/s", ratio(float64(readBytes), readS)/1e9)

	// The same run without the checkpoint policy, equally traced.
	opts := dist.Options{Ranks: qaoaRanks, Init: dist.InitZero, SampleShots: qaoaShots,
		SampleSeed: 1, Telemetry: telemetry.New(), Profile: true}
	t0 := time.Now()
	if _, err := dist.Run(plan, opts); err != nil {
		*f = append(*f, "run without checkpoints: "+err.Error())
		return
	}
	s.layer("ckpt.overhead_frac", "ratio", run/time.Since(t0).Seconds()-1)
}

// traceOOC reads the qaoa-ooc layers; refRun is the in-memory Plan.Run
// time of the same plan.
func (s *sample) traceOOC(e *env, plan *schedule.Plan, mid map[string]float64, refRun float64) {
	c := e.tr.circuit
	pc := countPlan(plan)
	f := &s.solveFail
	f.exact("oocvec.chunks_read", int64(mid["oocvec.chunks_read"]), int64(pc.chunkTransfers(plan)))
	f.exact("oocvec.chunks_written", int64(mid["oocvec.chunks_written"]), int64(pc.chunkTransfers(plan)))

	chunk := float64(int64(ampBytes) << plan.L)
	read, written := mid["oocvec.chunks_read"], mid["oocvec.chunks_written"]
	run := e.tr.seconds(c, "solve/oocvec.Run")
	s.layer("oocvec.new_s", "s", e.tr.seconds(c, "setup/oocvec.New"))
	s.layer("oocvec.run_s", "s", run)
	s.layer("oocvec.readout_s", "s", e.tr.seconds(c, "solve/oocvec.readout"))
	s.layer("oocvec.slowdown", "ratio", run/refRun)
	s.layer("oocvec.chunks_read", "count", read)
	s.layer("oocvec.chunks_written", "count", written)
	s.layer("oocvec.bytes_read", "bytes", read*chunk)
	s.layer("oocvec.bytes_written", "bytes", written*chunk)
	s.layer("oocvec.read_s", "s", mid["oocvec.read_ns"])
	s.layer("oocvec.write_s", "s", mid["oocvec.write_ns"])
	s.layer("oocvec.read_gbps", "GB/s", ratio(read*chunk, mid["oocvec.read_ns"])/1e9)
	s.layer("oocvec.write_gbps", "GB/s", ratio(written*chunk, mid["oocvec.write_ns"])/1e9)
	s.layer("oocvec.prefetch_hit_ratio", "ratio",
		ratio(mid["oocvec.prefetch_hits"], mid["oocvec.prefetch_hits"]+mid["oocvec.prefetch_misses"]))
	s.layer("oocvec.io_retries", "count", mid["oocvec.io_retries"])
}

// timePlanRun times Plan.Run of plan from the uniform state with the given
// par pool size.
func timePlanRun(plan *schedule.Plan, workers int) float64 {
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)
	v := statevec.NewUniform(plan.N)
	t0 := time.Now()
	if err := plan.Run(v); err != nil {
		return 0
	}
	return time.Since(t0).Seconds()
}

// kernelReps is how often each kernel class is timed; the median counts.
const kernelReps = 3

// kernelNsPerAmp times the Auto kernels on a state of the plan's size at
// every (size, stride class) the plan's clusters and diagonals use — one
// representative op per class — and returns nanoseconds per amplitude for
// each cluster size k and for diagonals, weighted by how many ops of the
// plan fall in each class. A size the plan does not use is timed on the
// lowest k positions.
func kernelNsPerAmp(plan *schedule.Plan, f32 bool) (perK [6]float64, diag float64) {
	type class struct {
		diag   bool
		k      int
		stride kernels.StrideClass
	}
	rep := map[class]*schedule.Op{}
	count := map[class]int{}
	for i := range plan.Ops {
		op := &plan.Ops[i]
		if op.Kind != schedule.OpCluster && op.Kind != schedule.OpDiagonal {
			continue
		}
		cl := class{op.Kind == schedule.OpDiagonal, len(op.Positions), kernels.StrideClassOf(op.Positions)}
		if rep[cl] == nil {
			rep[cl] = op
		}
		count[cl]++
	}
	for k := 1; k <= 5; k++ {
		found := false
		for cl := range rep {
			found = found || (!cl.diag && cl.k == k)
		}
		if !found {
			qs := make([]int, k)
			m := make([]complex128, 1<<(2*k))
			for j := range qs {
				qs[j] = j
			}
			for j := 0; j < 1<<k; j++ {
				m[j<<k|j] = 1
			}
			cl := class{false, k, kernels.StrideClassOf(qs)}
			rep[cl] = &schedule.Op{Kind: schedule.OpCluster, Positions: qs}
			rep[cl].Matrix.Data = m
			count[cl] = 1
		}
	}
	apply := kernelApplier(plan.N, f32)
	var sum, weight [7]float64 // index 6: diagonals
	classes := make([]class, 0, len(rep))
	for cl := range rep {
		classes = append(classes, cl)
	}
	sort.Slice(classes, func(a, b int) bool {
		x, y := classes[a], classes[b]
		if x.diag != y.diag {
			return !x.diag
		}
		if x.k != y.k {
			return x.k < y.k
		}
		return x.stride < y.stride
	})
	for _, cl := range classes {
		times := make([]float64, kernelReps)
		for r := range times {
			times[r] = apply(rep[cl])
		}
		slot := cl.k
		if cl.diag {
			slot = 6
		}
		w := float64(count[cl])
		sum[slot] += w * median(times) / float64(int64(1)<<plan.N) * 1e9
		weight[slot] += w
	}
	for k := 1; k <= 5; k++ {
		perK[k] = sum[k] / weight[k]
	}
	return perK, ratio(sum[6], weight[6])
}

// kernelApplier returns a function timing one application of an op's
// kernel, in seconds, on a uniform n-qubit state of the given precision.
func kernelApplier(n int, f32 bool) func(op *schedule.Op) float64 {
	if f32 {
		amps, scratch := make([]complex64, 1<<n), make([]complex64, 1<<n)
		for j := range amps {
			amps[j] = 1
		}
		return func(op *schedule.Op) float64 {
			d, m := kernels.ToComplex64(op.Diag), kernels.ToComplex64(op.Matrix.Data)
			t0 := time.Now()
			if op.Kind == schedule.OpDiagonal {
				kernels.ApplyDiagonalF32(amps, d, op.Positions)
			} else if out := kernels.ApplyF32(kernels.Auto, amps, m, op.Positions, scratch); &out[0] != &amps[0] {
				amps, scratch = out, amps
			}
			return time.Since(t0).Seconds()
		}
	}
	amps, scratch := make([]complex128, 1<<n), make([]complex128, 1<<n)
	for j := range amps {
		amps[j] = 1
	}
	return func(op *schedule.Op) float64 {
		t0 := time.Now()
		if op.Kind == schedule.OpDiagonal {
			kernels.ApplyDiagonal(amps, op.Diag, op.Positions)
		} else if out := kernels.Apply(kernels.Auto, amps, op.Matrix.Data, op.Positions, scratch); &out[0] != &amps[0] {
			amps, scratch = out, amps
		}
		return time.Since(t0).Seconds()
	}
}
