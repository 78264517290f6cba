// Package schedule implements the circuit optimizations of Sec. 3.6 of
// Häner & Steiger, SC'17: gate scheduling into communication-free stages,
// greedy clustering of gates into k ≤ kmax qubit fused gates, local
// adjustment of global-to-local swaps across stage boundaries, and the
// qubit-mapping heuristic. Its output is an executable Plan consumed by the
// single-node executor in this package and by the distributed engine in
// package dist.
package schedule

import (
	"fmt"
	"math"
)

// SwapPolicy selects how the residency set of the next stage is chosen at a
// global-to-local swap.
type SwapPolicy int

const (
	// SwapGreedy is the paper's "cheap search algorithm to find better
	// local qubits to swap with": the next resident set is built by walking
	// the remaining circuit and admitting the qubits of the longest
	// schedulable prefix, keeping still-useful residents.
	SwapGreedy SwapPolicy = iota
	// SwapLowestOrder is the paper's baseline upper bound: every global
	// qubit is swapped in, evicting the lowest-order local qubits
	// regardless of whether they are needed soon.
	SwapLowestOrder
)

func (p SwapPolicy) String() string {
	switch p {
	case SwapGreedy:
		return "greedy"
	case SwapLowestOrder:
		return "lowest-order"
	}
	return fmt.Sprintf("SwapPolicy(%d)", int(p))
}

// MappingPolicy selects the initial qubit → bit-location assignment.
type MappingPolicy int

const (
	// MapIdentity assigns resident qubits to local bit locations in qubit
	// order.
	MapIdentity MappingPolicy = iota
	// MapHeuristic applies the cache-associativity-aware heuristic of
	// Sec. 3.6.2: hot qubits (those appearing in the most clusters) are
	// assigned the low-order bit locations.
	MapHeuristic
)

func (p MappingPolicy) String() string {
	switch p {
	case MapIdentity:
		return "identity"
	case MapHeuristic:
		return "heuristic"
	}
	return fmt.Sprintf("MappingPolicy(%d)", int(p))
}

// Options configures Build.
type Options struct {
	// LocalQubits is l: qubits at bit locations < l are stored node-locally
	// (2^l amplitudes per rank); the remaining n−l are global (encoded in
	// the rank number). LocalQubits ≥ n means a single rank and no
	// communication.
	LocalQubits int
	// KMax is the largest fused-gate size the clustering may build
	// (Table 1 evaluates 3, 4 and 5). It is an upper bound: with a
	// PassCost table the clusterer stops short of it when the larger pass
	// would cost more than the passes it replaces.
	KMax int
	// PassCost prices one pass over the state in ns per amplitude:
	// PassCost[0] is a diagonal op of any size (it runs through the
	// diagonal kernel), PassCost[k] a dense k-qubit cluster, for every
	// k ≤ KMax. The clusterer admits a gate into a cluster only when
	// cost(merged) ≤ cost(cluster) + cost(gate alone). nil prices every
	// pass the same — the paper's bandwidth-bound machine, where every
	// merge pays and clusters grow to KMax.
	PassCost []float64
	// SpecializeDiagonal2Q enables executing diagonal two-qubit gates (CZ)
	// on global qubits without communication (Sec. 3.5). The paper's stage
	// finder always uses this.
	SpecializeDiagonal2Q bool
	// SpecializeDiagonal1Q additionally specializes diagonal single-qubit
	// gates (T, Z, S, Rz). The paper's stage finder assumes the worst case
	// — random single-qubit gates treated as dense — so this defaults off
	// for scheduling (Sec. 3.6.1 step 1); enabling it models the
	// "median hard instances" of Fig. 5.
	SpecializeDiagonal1Q bool
	// SwapPolicy picks the residency-selection strategy.
	SwapPolicy SwapPolicy
	// AdjustBoundaries enables step 3 of Sec. 3.6.1: trailing clusters of a
	// stage whose qubits stay resident are deferred across the swap to grow
	// the next stage's clusters.
	AdjustBoundaries bool
	// Mapping picks the initial bit-location assignment.
	Mapping MappingPolicy
	// Clustering enables gate fusion. When false every local gate becomes
	// its own cluster (the ablation baseline).
	Clustering bool
	// NoSeedSearch disables the "small local search" of Sec. 3.6.1 step 2
	// that tries every ready gate as the cluster seed and keeps the
	// largest cluster; instead the earliest ready gate always seeds.
	// An ablation knob — the search reduces the total cluster count.
	NoSeedSearch bool
}

// DefaultOptions returns the default configuration: the paper's greedy
// swap search, CZ specialization, worst-case dense single-qubit gates,
// boundary adjustment and heuristic mapping, with clustering bounded by
// kmax = 5 (the largest fused-gate size Table 1 evaluates, matching the
// k ≤ 5 specialized kernels) and priced by this code's measured pass-cost
// table. KMax is clamped to localQubits so tiny local windows still
// validate. The paper's cluster counts need PassCost = nil.
func DefaultOptions(localQubits int) Options {
	kmax := 5
	if localQubits >= 1 && localQubits < kmax {
		// A cluster cannot span more qubits than are resident; keep the
		// default valid for tiny local partitions. localQubits 0 is the
		// "caller fills LocalQubits in later" sentinel and keeps the full
		// paper default.
		kmax = localQubits
	}
	return Options{
		LocalQubits:          localQubits,
		KMax:                 kmax,
		SpecializeDiagonal2Q: true,
		SpecializeDiagonal1Q: false,
		SwapPolicy:           SwapGreedy,
		AdjustBoundaries:     true,
		Mapping:              MapHeuristic,
		Clustering:           true,
		// The complex128 kernels' ns per amplitude (index 0 diagonal,
		// 1…5 dense k), as `bash perfbench/run.sh --trace 1` reports them
		// (kernels.f64.diag_ns_per_amp, kernels.f64.k1…k5_ns_per_amp) on
		// a 2-core x86-64 VM with the scalar Go kernels. Dense passes stop
		// being bandwidth-bound at k = 3 there, so dense clusters stay at
		// k ≤ 2 while diagonal ones grow to KMax. A constant, not a live
		// measurement, so a plan rebuilds identically on resume.
		PassCost: []float64{3.55, 2.65, 3.86, 9.85, 17.4, 40.5},
	}
}

func (o Options) validate(n int) error {
	if o.LocalQubits < 1 {
		return fmt.Errorf("schedule: LocalQubits must be ≥ 1, got %d", o.LocalQubits)
	}
	if o.KMax < 1 {
		return fmt.Errorf("schedule: KMax must be ≥ 1, got %d", o.KMax)
	}
	l := o.LocalQubits
	if l > n {
		l = n
	}
	if o.KMax > l {
		return fmt.Errorf("schedule: KMax %d exceeds local qubits %d", o.KMax, l)
	}
	if o.PassCost != nil && len(o.PassCost) <= o.KMax {
		return fmt.Errorf("schedule: PassCost prices k ≤ %d, KMax is %d", len(o.PassCost)-1, o.KMax)
	}
	for k, c := range o.PassCost {
		if !(c > 0) || math.IsInf(c, 1) {
			return fmt.Errorf("schedule: PassCost[%d] = %v, want a finite cost > 0", k, c)
		}
	}
	return nil
}
