package schedule

import (
	"math/bits"
)

// stageOp is an intermediate operation of one stage: either a cluster of
// gates to fuse, or a single specialized diagonal gate touching global
// qubits. gates holds circuit gate indices in program order.
type stageOp struct {
	cluster bool
	gates   []int
}

// stageGates is one stage's gates as clustering sees them, indexed by
// stage-local gate index.
type stageGates struct {
	qubits [][]int       // the gate's qubits
	masks  []uint64      // qubit mask
	diag   []bool        // the gate is diagonal
	local  []bool        // every qubit is resident
	queues map[int][]int // per qubit: stage-local indices in program order
}

// ready reports whether si is the front gate of all its qubits under the
// queue pointers pt.
func (st *stageGates) ready(si int, pt map[int]int) bool {
	for _, q := range st.qubits[si] {
		queue := st.queues[q]
		p := pt[q]
		if p >= len(queue) || queue[p] != si {
			return false
		}
	}
	return true
}

// advance marks si assigned and pops it from its qubits' queues.
func (st *stageGates) advance(si int, pt map[int]int, asg []bool) {
	asg[si] = true
	for _, q := range st.qubits[si] {
		pt[q]++
	}
}

// clusterStage greedily merges the stage's gates into clusters of at most
// KMax qubits (Sec. 3.6.1 step 2), admitting a gate only where the pass-cost
// table says the merged pass is no dearer than the two it replaces. Gates
// acting on a global qubit are specialized diagonal gates and are emitted as
// singleton ops. A small local search tries every ready gate as the cluster
// seed and keeps the cluster that merges the most gates.
func (b *builder) clusterStage(sel []int, resident uint64) []stageOp {
	n := len(sel)
	if n == 0 {
		return nil
	}
	st := &stageGates{
		qubits: make([][]int, n),
		masks:  make([]uint64, n),
		diag:   make([]bool, n),
		local:  make([]bool, n),
		queues: make(map[int][]int),
	}
	for si, gi := range sel {
		g := &b.c.Gates[gi]
		st.qubits[si] = g.Qubits
		st.masks[si] = b.qubitMask(g)
		st.diag[si] = g.IsDiagonal()
		st.local[si] = st.masks[si]&^resident == 0
		for _, q := range g.Qubits {
			st.queues[q] = append(st.queues[q], si)
		}
	}
	ptr := make(map[int]int, len(st.queues))
	assigned := make([]bool, n)
	remaining := n

	var out []stageOp
	kmax := b.opts.KMax

	for remaining > 0 {
		// 1) Drain ready specialized diagonal gates on global qubits —
		// they cost no communication and no kernel invocation.
		progressed := true
		for progressed {
			progressed = false
			for si := 0; si < n; si++ {
				if assigned[si] || st.local[si] || !st.ready(si, ptr) {
					continue
				}
				st.advance(si, ptr, assigned)
				remaining--
				out = append(out, stageOp{cluster: false, gates: []int{sel[si]}})
				progressed = true
			}
		}
		if remaining == 0 {
			break
		}
		// 2) Grow the best cluster among ready local gates.
		var seeds []int
		for si := 0; si < n; si++ {
			if !assigned[si] && st.local[si] && st.ready(si, ptr) {
				seeds = append(seeds, si)
			}
		}
		if len(seeds) == 0 {
			// Cannot happen: the earliest unassigned gate is always ready,
			// and if it were global it would have drained above.
			panic("schedule: no ready gates during clustering")
		}
		if !b.opts.Clustering {
			// Ablation mode: each gate is its own cluster, in order.
			si := seeds[0]
			for _, s := range seeds {
				if s < si {
					si = s
				}
			}
			st.advance(si, ptr, assigned)
			remaining--
			out = append(out, stageOp{cluster: true, gates: []int{sel[si]}})
			continue
		}
		if b.opts.NoSeedSearch {
			// Ablation: earliest ready gate seeds, no alternatives tried.
			seed := seeds[0]
			for _, s := range seeds {
				if s < seed {
					seed = s
				}
			}
			seeds = seeds[:1]
			seeds[0] = seed
		}
		best := b.growCluster(seeds[0], st, ptr, assigned, kmax)
		for _, seed := range seeds[1:] {
			cand := b.growCluster(seed, st, ptr, assigned, kmax)
			if len(cand.members) > len(best.members) ||
				(len(cand.members) == len(best.members) &&
					(bits.OnesCount64(cand.qubits) < bits.OnesCount64(best.qubits) ||
						(bits.OnesCount64(cand.qubits) == bits.OnesCount64(best.qubits) && cand.members[0] < best.members[0]))) {
				best = cand
			}
		}
		gates := make([]int, len(best.members))
		for i, si := range best.members {
			gates[i] = sel[si]
			st.advance(si, ptr, assigned)
		}
		remaining -= len(best.members)
		out = append(out, stageOp{cluster: true, gates: gates})
	}
	return out
}

type grownCluster struct {
	members []int // stage-local indices, in program order of admission
	qubits  uint64
	diag    bool // every member is diagonal, so the fused pass is too
}

// mergePays is the fusion cost rule: fusing a gate of kg qubits into a
// cluster of kc qubits, for a merged pass over km qubits, must cost no more
// than the two passes it replaces. A pass is priced PassCost[0] when
// diagonal (at any k) and PassCost[k] when dense; the merged pass is
// diagonal only if both parts are. A nil table prices every pass the same,
// so every merge pays.
func (o *Options) mergePays(kc int, dc bool, kg int, dg bool, km int) bool {
	if o.PassCost == nil {
		return true
	}
	cost := func(k int, diag bool) float64 {
		if diag {
			return o.PassCost[0]
		}
		return o.PassCost[k]
	}
	return cost(km, dc && dg) <= cost(kc, dc)+cost(kg, dg)
}

// growCluster simulates growing a cluster from seed: repeatedly admit ready
// local gates whose qubits are a subset of the cluster (free growth), and
// when none remain, admit the ready gate that grows the qubit set least
// while staying within kmax. Every admission must pass mergePays; a subset
// gate always does unless it turns a diagonal cluster dense.
func (b *builder) growCluster(seed int, st *stageGates, ptr map[int]int, assigned []bool, kmax int) grownCluster {
	pt := make(map[int]int, len(ptr))
	for q, p := range ptr {
		pt[q] = p
	}
	asg := make([]bool, len(assigned))
	copy(asg, assigned)

	g := grownCluster{qubits: st.masks[seed], diag: st.diag[seed], members: []int{seed}}
	if bits.OnesCount64(g.qubits) > kmax {
		// A single gate larger than kmax still becomes its own cluster.
		return g
	}
	st.advance(seed, pt, asg)
	pays := func(si int) bool {
		m := st.masks[si]
		return b.opts.mergePays(bits.OnesCount64(g.qubits), g.diag,
			bits.OnesCount64(m), st.diag[si], bits.OnesCount64(g.qubits|m))
	}
	admit := func(si int) {
		g.qubits |= st.masks[si]
		g.diag = g.diag && st.diag[si]
		g.members = append(g.members, si)
		st.advance(si, pt, asg)
	}

	for {
		// Free growth: subset gates first.
		progressed := true
		for progressed {
			progressed = false
			for si := range st.masks {
				if asg[si] || !st.local[si] || st.masks[si]&^g.qubits != 0 || !st.ready(si, pt) || !pays(si) {
					continue
				}
				admit(si)
				progressed = true
			}
		}
		// Minimal-growth extension.
		bestSi, bestGrow := -1, kmax+1
		for si := range st.masks {
			if asg[si] || !st.local[si] || !st.ready(si, pt) {
				continue
			}
			grow := bits.OnesCount64(st.masks[si] &^ g.qubits)
			if grow == 0 {
				continue // a subset gate free growth declined
			}
			if bits.OnesCount64(g.qubits)+grow > kmax || grow >= bestGrow || !pays(si) {
				continue
			}
			bestGrow, bestSi = grow, si
		}
		if bestSi < 0 {
			return g
		}
		admit(bestSi)
	}
}
