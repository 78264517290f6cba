package schedule

import (
	"fmt"
	"math/bits"
	"sort"

	"qusim/internal/circuit"
	"qusim/internal/gate"
)

// Build schedules a circuit into a Plan per the optimizations of Sec. 3.6:
// stages separated by global-to-local swaps, fused k ≤ KMax clusters within
// each stage, specialized diagonal gates on global qubits, boundary
// adjustment, and qubit mapping.
func Build(c *circuit.Circuit, opts Options) (*Plan, error) {
	if err := opts.validate(c.N); err != nil {
		return nil, err
	}
	if c.N > 62 {
		return nil, fmt.Errorf("schedule: %d qubits exceeds the 62-qubit bitset limit", c.N)
	}
	b := newBuilder(c, opts, nil)
	plan, err := b.run()
	if err != nil {
		return nil, err
	}
	if opts.Mapping == MapHeuristic {
		pos := heuristicMapping(c.N, b.l, b.initialResident, b.clusterQubitSets)
		b2 := newBuilder(c, opts, pos)
		plan, err = b2.run()
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
}

type builder struct {
	c    *circuit.Circuit
	opts Options
	n, l int

	pos []int // qubit -> current bit location
	loc []int // bit location -> qubit

	ops   []Op
	stats Stats
	stage int

	initialPos       []int // fixed initial layout, or nil to choose greedily
	initialResident  uint64
	clusterQubitSets [][]int // qubit-index sets of all emitted clusters
	gatesInClusters  int
}

func newBuilder(c *circuit.Circuit, opts Options, initialPos []int) *builder {
	l := opts.LocalQubits
	if l > c.N {
		l = c.N
	}
	return &builder{c: c, opts: opts, n: c.N, l: l, initialPos: initialPos}
}

func (b *builder) qubitMask(g *circuit.Gate) uint64 {
	var m uint64
	for _, q := range g.Qubits {
		m |= 1 << uint(q)
	}
	return m
}

// specializable reports whether g may execute on global qubits without
// communication under the configured specialization (Sec. 3.5).
func (b *builder) specializable(g *circuit.Gate) bool {
	if !g.IsDiagonal() {
		return false
	}
	if g.K() == 1 {
		return b.opts.SpecializeDiagonal1Q
	}
	return b.opts.SpecializeDiagonal2Q
}

func (b *builder) run() (*Plan, error) {
	remaining := make([]int, len(b.c.Gates))
	for i := range remaining {
		remaining[i] = i
	}

	// Initial residency and layout.
	var resident uint64
	if b.initialPos != nil {
		b.pos = append([]int(nil), b.initialPos...)
		b.loc = make([]int, b.n)
		for q, p := range b.pos {
			b.loc[p] = q
		}
		for q := 0; q < b.n; q++ {
			if b.pos[q] < b.l {
				resident |= 1 << uint(q)
			}
		}
	} else {
		resident = b.chooseResidency(remaining, 0, true)
		b.layoutInitial(resident)
	}
	b.initialResident = resident
	initial := append([]int(nil), b.pos...)

	b.stats = Stats{
		Qubits:       b.n,
		LocalQubits:  b.l,
		Gates:        len(b.c.Gates),
		ClusterSizes: map[int]int{},
	}
	b.countBaselines()

	guard := 0
	for len(remaining) > 0 {
		guard++
		if guard > 4*len(b.c.Gates)+8 {
			return nil, fmt.Errorf("schedule: stage partition did not converge (policy %v)", b.opts.SwapPolicy)
		}
		sel, rest := b.takeStage(remaining, resident)
		if len(sel) == 0 {
			// The lowest-order policy can stall by evicting a needed
			// qubit; fall back to the greedy choice for this boundary.
			next := b.chooseResidencyGreedy(remaining, resident)
			b.emitSwap(resident, next)
			resident = next
			continue
		}
		stageOps := b.clusterStage(sel, resident)

		var next uint64
		if len(rest) > 0 {
			next = b.chooseResidency(rest, resident, false)
			if b.opts.AdjustBoundaries {
				stageOps, rest = b.adjustBoundary(stageOps, sel, rest, resident, next)
			}
		}
		b.emitStageOps(stageOps, sel)
		b.stats.Stages++
		if len(rest) > 0 {
			b.emitSwap(resident, next)
			resident = next
		}
		b.stage++
		remaining = rest
	}

	if b.stats.Clusters > 0 {
		b.stats.GatesPerCluster = float64(b.gatesInClusters) / float64(b.stats.Clusters)
	}
	b.ops = fuseSwapPerms(b.ops, &b.stats)
	plan := &Plan{
		N:          b.n,
		L:          b.l,
		Ops:        b.ops,
		InitialPos: initial,
		FinalPos:   append([]int(nil), b.pos...),
		Stats:      b.stats,
	}
	if got := b.coveredGates(); got != len(b.c.Gates) {
		return nil, fmt.Errorf("schedule: plan covers %d gates, circuit has %d", got, len(b.c.Gates))
	}
	return plan, nil
}

func (b *builder) coveredGates() int {
	total := 0
	for _, op := range b.ops {
		if op.Kind == OpCluster || op.Kind == OpDiagonal {
			total += op.GateCount
		}
	}
	return total
}

// layoutInitial assigns resident qubits to local locations (in qubit order)
// and the rest to global locations.
func (b *builder) layoutInitial(resident uint64) {
	b.pos = make([]int, b.n)
	b.loc = make([]int, b.n)
	nextLocal, nextGlobal := 0, b.l
	for q := 0; q < b.n; q++ {
		if resident&(1<<uint(q)) != 0 {
			b.pos[q] = nextLocal
			nextLocal++
		} else {
			b.pos[q] = nextGlobal
			nextGlobal++
		}
	}
	for q, p := range b.pos {
		b.loc[p] = q
	}
}

// takeStage scans gates in program order and selects every gate executable
// without communication under the residency set, reordering only across
// trivially commuting gates (disjoint qubits): a gate whose qubits hit a
// blocked qubit blocks its own qubits (Sec. 3.6.1 step 1).
func (b *builder) takeStage(gates []int, resident uint64) (sel, rest []int) {
	var blocked uint64
	for _, gi := range gates {
		g := &b.c.Gates[gi]
		qm := b.qubitMask(g)
		if qm&blocked != 0 {
			blocked |= qm
			rest = append(rest, gi)
			continue
		}
		if qm&^resident == 0 || b.specializable(g) {
			sel = append(sel, gi)
		} else {
			blocked |= qm
			rest = append(rest, gi)
		}
	}
	return sel, rest
}

func (b *builder) chooseResidency(rest []int, prev uint64, first bool) uint64 {
	if b.opts.SwapPolicy == SwapLowestOrder && !first {
		return b.chooseResidencyLowestOrder(prev)
	}
	return b.chooseResidencyGreedy(rest, prev)
}

// chooseResidencyGreedy builds the next resident set by admitting the
// qubits of the longest schedulable prefix of the remaining circuit — the
// paper's "cheap search algorithm to find better local qubits to swap
// with".
func (b *builder) chooseResidencyGreedy(rest []int, prev uint64) uint64 {
	var r, blocked uint64
	count := 0
	for _, gi := range rest {
		g := &b.c.Gates[gi]
		qm := b.qubitMask(g)
		if qm&blocked != 0 {
			blocked |= qm
			continue
		}
		if b.specializable(g) {
			continue
		}
		need := qm &^ r
		nb := bits.OnesCount64(need)
		if count+nb <= b.l {
			r |= need
			count += nb
		} else {
			blocked |= qm
		}
	}
	if count < b.l {
		r = b.fillResidency(r, count, rest, prev)
	}
	return r
}

// fillResidency tops the set up to l qubits, preferring still-resident
// qubits with the earliest next use (cheap Belady-style retention).
func (b *builder) fillResidency(r uint64, count int, rest []int, prev uint64) uint64 {
	firstUse := make([]int, b.n)
	for q := range firstUse {
		firstUse[q] = len(rest) + 1
	}
	for i, gi := range rest {
		for _, q := range b.c.Gates[gi].Qubits {
			if firstUse[q] > i {
				firstUse[q] = i
			}
		}
	}
	type cand struct{ q, use, prevBonus int }
	var cands []cand
	for q := 0; q < b.n; q++ {
		if r&(1<<uint(q)) != 0 {
			continue
		}
		bonus := 1
		if prev&(1<<uint(q)) != 0 {
			bonus = 0
		}
		cands = append(cands, cand{q, firstUse[q], bonus})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prevBonus != cands[j].prevBonus {
			return cands[i].prevBonus < cands[j].prevBonus
		}
		if cands[i].use != cands[j].use {
			return cands[i].use < cands[j].use
		}
		return cands[i].q < cands[j].q
	})
	for _, cd := range cands {
		if count == b.l {
			break
		}
		r |= 1 << uint(cd.q)
		count++
	}
	return r
}

// chooseResidencyLowestOrder is the paper's upper-bound baseline: swap all
// global qubits in, evicting the lowest-order local qubits.
func (b *builder) chooseResidencyLowestOrder(prev uint64) uint64 {
	g := b.n - b.l
	if g <= 0 {
		return prev
	}
	// Incoming: every currently-global qubit (at most l of them).
	var incoming []int
	for q := 0; q < b.n; q++ {
		if prev&(1<<uint(q)) == 0 {
			incoming = append(incoming, q)
		}
	}
	if len(incoming) > b.l {
		incoming = incoming[:b.l]
	}
	// Evict the locals with the lowest bit locations.
	var locals []int
	for q := 0; q < b.n; q++ {
		if prev&(1<<uint(q)) != 0 {
			locals = append(locals, q)
		}
	}
	sort.Slice(locals, func(i, j int) bool { return b.pos[locals[i]] < b.pos[locals[j]] })
	next := prev
	for i := 0; i < len(incoming); i++ {
		next &^= 1 << uint(locals[i])
		next |= 1 << uint(incoming[i])
	}
	return next
}

// emitSwap emits the local permutation and the global-to-local swap that
// turn residency cur into next, updating the layout.
func (b *builder) emitSwap(cur, next uint64) {
	outgoing := cur &^ next
	incoming := next &^ cur
	q := bits.OnesCount64(incoming)
	if q != bits.OnesCount64(outgoing) {
		panic("schedule: unbalanced residency change")
	}
	if q == 0 {
		return
	}
	// 1) Bring outgoing qubits to the q highest local locations.
	outs := setBits(outgoing)
	sort.Slice(outs, func(i, j int) bool { return b.pos[outs[i]] < b.pos[outs[j]] })
	perm := make([]int, b.l)
	for i := range perm {
		perm[i] = -1
	}
	for j, qq := range outs {
		perm[b.pos[qq]] = b.l - q + j
	}
	nextFree := 0
	for p := 0; p < b.l; p++ {
		if perm[p] != -1 {
			continue
		}
		perm[p] = nextFree
		nextFree++
	}
	identity := true
	for p, np := range perm {
		if p != np {
			identity = false
			break
		}
	}
	if !identity {
		b.ops = append(b.ops, Op{Kind: OpLocalPerm, Perm: perm, Stage: b.stage})
		b.stats.LocalPerms++
		// Update layout for the local relabeling.
		newLoc := make([]int, b.n)
		copy(newLoc, b.loc)
		for p := 0; p < b.l; p++ {
			newLoc[perm[p]] = b.loc[p]
		}
		copy(b.loc, newLoc)
		for p, qq := range b.loc {
			b.pos[qq] = p
		}
	}
	// 2) Exchange local locations [l−q, l) with the incoming qubits'
	// global locations, pairwise.
	ins := setBits(incoming)
	sort.Slice(ins, func(i, j int) bool { return b.pos[ins[i]] < b.pos[ins[j]] })
	localPos := make([]int, q)
	globalPos := make([]int, q)
	for j := 0; j < q; j++ {
		localPos[j] = b.l - q + j
		globalPos[j] = b.pos[ins[j]]
	}
	b.ops = append(b.ops, Op{Kind: OpSwap, LocalPos: localPos, GlobalPos: globalPos, Stage: b.stage})
	b.stats.Swaps++
	for j := 0; j < q; j++ {
		lq := b.loc[localPos[j]]
		gq := b.loc[globalPos[j]]
		b.loc[localPos[j]], b.loc[globalPos[j]] = gq, lq
		b.pos[gq], b.pos[lq] = localPos[j], globalPos[j]
	}
}

// fuseSwapPerms is the peephole of the single-pass permutation pipeline: an
// OpLocalPerm immediately followed by the OpSwap it was emitted for folds
// into the swap op (Op.Perm), so engines execute the relabeling inside the
// all-to-all pack/unpack loops instead of as a separate full-state sweep.
// Stats.LocalPerms keeps counting the permutations wherever they execute;
// Stats.FusedPerms records how many were folded.
func fuseSwapPerms(ops []Op, stats *Stats) []Op {
	out := make([]Op, 0, len(ops))
	for i := 0; i < len(ops); i++ {
		if ops[i].Kind == OpLocalPerm && i+1 < len(ops) &&
			ops[i+1].Kind == OpSwap && ops[i+1].Perm == nil {
			sw := ops[i+1]
			sw.Perm = ops[i].Perm
			out = append(out, sw)
			stats.FusedPerms++
			i++
			continue
		}
		out = append(out, ops[i])
	}
	return out
}

func setBits(m uint64) []int {
	var out []int
	for m != 0 {
		q := bits.TrailingZeros64(m)
		out = append(out, q)
		m &^= 1 << uint(q)
	}
	return out
}

// countBaselines records how many communication steps the per-gate scheme
// of [5]/[19] would need on this circuit with the identity mapping: every
// gate touching a qubit at location ≥ l is one communication step, unless
// specialization elides it (Fig. 5, lower panels).
func (b *builder) countBaselines() {
	for i := range b.c.Gates {
		g := &b.c.Gates[i]
		global := false
		for _, q := range g.Qubits {
			if q >= b.l {
				global = true
				break
			}
		}
		if !global {
			continue
		}
		b.stats.BaselineGlobalGatesDense++
		if !b.specializable(g) {
			b.stats.BaselineGlobalGates++
		}
	}
}

// adjustBoundary implements step 3 of Sec. 3.6.1: if the trailing clusters
// of a stage act on qubits that stay resident after the swap, defer their
// gates into the next stage (performing the swap "earlier"), shrinking the
// total cluster count without adding swaps.
func (b *builder) adjustBoundary(stageOps []stageOp, sel, rest []int, cur, next uint64) ([]stageOp, []int) {
	keep := cur & next
	// Last gate index per qubit within sel.
	lastOn := map[int]int{}
	for _, gi := range sel {
		for _, q := range b.c.Gates[gi].Qubits {
			lastOn[q] = gi
		}
	}
	deferred := []int{}
	for pops := 0; pops < 2 && len(stageOps) > 0; pops++ {
		op := stageOps[len(stageOps)-1]
		if !op.cluster || len(op.gates) == 0 {
			break
		}
		ok := true
		memberSet := map[int]bool{}
		for _, gi := range op.gates {
			memberSet[gi] = true
		}
		for _, gi := range op.gates {
			g := &b.c.Gates[gi]
			qm := b.qubitMask(g)
			if qm&^keep != 0 {
				ok = false
				break
			}
			for _, q := range g.Qubits {
				if last := lastOn[q]; last != gi && !memberSet[last] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			break
		}
		stageOps = stageOps[:len(stageOps)-1]
		deferred = append(op.gates, deferred...)
	}
	if len(deferred) > 0 {
		rest = append(deferred, rest...)
	}
	return stageOps, rest
}

// emitStageOps finalizes a stage's operations: fuses cluster matrices and
// materializes diagonal entries, using the current layout.
func (b *builder) emitStageOps(stageOps []stageOp, sel []int) {
	for _, sop := range stageOps {
		if sop.cluster {
			b.emitCluster(sop.gates)
		} else {
			b.emitDiag(sop.gates[0], false)
		}
	}
	_ = sel
}

func (b *builder) emitCluster(gates []int) {
	if len(gates) == 1 {
		g := &b.c.Gates[gates[0]]
		if g.IsDiagonal() {
			// Avoid building a dense 2^k matrix for large diagonal gates
			// (e.g. the n-qubit oracles of the Grover example). It still
			// counts as a cluster: it is one kernel invocation.
			b.emitDiag(gates[0], true)
			return
		}
	}
	// Collect the qubit set.
	var qm uint64
	for _, gi := range gates {
		qm |= b.qubitMask(&b.c.Gates[gi])
	}
	qubits := setBits(qm)
	sort.Slice(qubits, func(i, j int) bool { return b.pos[qubits[i]] < b.pos[qubits[j]] })
	positions := make([]int, len(qubits))
	slot := map[int]int{}
	for i, q := range qubits {
		positions[i] = b.pos[q]
		slot[q] = i
	}
	k := len(qubits)
	ops := make([]gate.Op, len(gates))
	for i, gi := range gates {
		g := &b.c.Gates[gi]
		pos := make([]int, len(g.Qubits))
		for j, q := range g.Qubits {
			pos[j] = slot[q]
		}
		ops[i] = gate.Op{U: g.Matrix(), Pos: pos}
	}
	fused := gate.Fuse(ops, k)
	b.clusterQubitSets = append(b.clusterQubitSets, qubits)
	b.stats.Clusters++
	b.stats.ClusterSizes[k]++
	b.gatesInClusters += len(gates)
	if fused.IsDiagonal(1e-14) {
		// Execution optimization: a cluster of purely diagonal gates runs
		// through the diagonal kernel (it still counts as one cluster).
		b.stats.DiagonalClusters++
		b.ops = append(b.ops, Op{
			Kind: OpDiagonal, Diag: fused.Diagonal(), Positions: positions,
			GateCount: len(gates), Stage: b.stage,
		})
		return
	}
	b.ops = append(b.ops, Op{
		Kind: OpCluster, Matrix: fused, Positions: positions,
		GateCount: len(gates), Stage: b.stage,
	})
}

// DiagonalOp builds the OpDiagonal for a diagonal circuit gate, given the
// bit location of each qubit: positions are sorted ascending and the
// diagonal entries are permuted accordingly. Exported for the per-gate
// baseline engine, which executes diagonal gates through the same
// specialization (Sec. 3.5).
func DiagonalOp(g *circuit.Gate, pos func(q int) int) Op {
	d := g.Matrix().Diagonal()
	k := len(g.Qubits)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool { return pos(g.Qubits[idx[a]]) < pos(g.Qubits[idx[c]]) })
	positions := make([]int, k)
	perm := make([]int, k) // gate-local j -> sorted slot
	for rank, j := range idx {
		positions[rank] = pos(g.Qubits[j])
		perm[j] = rank
	}
	dd := make([]complex128, len(d))
	for x := range d {
		y := 0
		for j := 0; j < k; j++ {
			if x&(1<<j) != 0 {
				y |= 1 << perm[j]
			}
		}
		dd[y] = d[x]
	}
	return Op{Kind: OpDiagonal, Diag: dd, Positions: positions, GateCount: 1}
}

// emitDiag emits one diagonal gate directly from its diagonal entries. It
// serves both specialized global diagonal gates (Sec. 3.5,
// countAsCluster=false) and singleton local diagonal clusters.
func (b *builder) emitDiag(gi int, countAsCluster bool) {
	g := &b.c.Gates[gi]
	op := DiagonalOp(g, func(q int) int { return b.pos[q] })
	op.Stage = b.stage
	b.ops = append(b.ops, op)
	if countAsCluster {
		b.stats.Clusters++
		b.stats.DiagonalClusters++
		b.stats.ClusterSizes[len(g.Qubits)]++
		b.gatesInClusters++
		b.clusterQubitSets = append(b.clusterQubitSets, append([]int(nil), g.Qubits...))
	} else {
		b.stats.DiagonalOps++
	}
}
