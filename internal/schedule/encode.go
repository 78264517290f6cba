package schedule

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// Plan serialization. The scheduler's pre-computation "terminates in 1–3
// seconds on a laptop ... and can be reused for all instances of the same
// size" (Table 1 caption) — serialized plans are how that reuse works
// across processes: schedule once with qsched, execute many times with
// qsim.

// planWire is the gob wire form of a Plan.
type planWire struct {
	Version    int
	N, L       int
	Ops        []Op
	InitialPos []int
	FinalPos   []int
	Stats      Stats
}

const planWireVersion = 1

// WritePlan serializes the plan to w.
func WritePlan(w io.Writer, p *Plan) error {
	enc := gob.NewEncoder(w)
	return enc.Encode(planWire{
		Version:    planWireVersion,
		N:          p.N,
		L:          p.L,
		Ops:        p.Ops,
		InitialPos: p.InitialPos,
		FinalPos:   p.FinalPos,
		Stats:      p.Stats,
	})
}

// ReadPlan deserializes a plan written by WritePlan.
func ReadPlan(r io.Reader) (*Plan, error) {
	var w planWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("schedule: decoding plan: %w", err)
	}
	if w.Version != planWireVersion {
		return nil, fmt.Errorf("schedule: unsupported plan version %d", w.Version)
	}
	p := &Plan{
		N:          w.N,
		L:          w.L,
		Ops:        w.Ops,
		InitialPos: w.InitialPos,
		FinalPos:   w.FinalPos,
		Stats:      w.Stats,
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// unitaryTol bounds the max-norm residual of M†M − 1 for a decoded cluster
// matrix and of |d|² − 1 for a decoded diagonal entry: far above the
// rounding a fused product of exact gates accumulates, far below what could
// hide a corrupted entry.
const unitaryTol = 1e-10

// validate checks a deserialized plan against every invariant the executors
// assume, so a malformed plan fails here instead of panicking in a kernel or
// silently corrupting the state: position maps and permutations are
// bijections, cluster and diagonal positions ascend strictly within their
// range, swaps pair the top local locations with distinct global ones,
// cluster matrices are unitary and diagonal entries unimodular, and stages
// never decrease.
func (p *Plan) validate() error {
	if p.N < 1 || p.L < 1 || p.L > p.N || p.N > 62 {
		return fmt.Errorf("schedule: invalid plan dimensions n=%d l=%d", p.N, p.L)
	}
	if !isPermutation(p.InitialPos, p.N) || !isPermutation(p.FinalPos, p.N) {
		return fmt.Errorf("schedule: plan position map is not a permutation of 0…%d", p.N-1)
	}
	stage := 0
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Stage < stage {
			return fmt.Errorf("schedule: op %d: stage %d after stage %d", i, op.Stage, stage)
		}
		stage = op.Stage
		switch op.Kind {
		case OpCluster:
			k := len(op.Positions) // k ≤ 30 keeps 1<<(2k) from overflowing
			if k == 0 || k > 30 || op.Matrix.K != k || len(op.Matrix.Data) != 1<<(2*k) {
				return fmt.Errorf("schedule: op %d: %d-qubit matrix with %d entries on %d positions", i, op.Matrix.K, len(op.Matrix.Data), k)
			}
			if !ascending(op.Positions, 0, p.L) {
				return fmt.Errorf("schedule: op %d: cluster positions %v are not strictly ascending local locations", i, op.Positions)
			}
			if !op.Matrix.IsUnitary(unitaryTol) {
				return fmt.Errorf("schedule: op %d: cluster matrix is not unitary", i)
			}
		case OpDiagonal:
			if len(op.Diag) != 1<<len(op.Positions) {
				return fmt.Errorf("schedule: op %d: diagonal size mismatch", i)
			}
			if !ascending(op.Positions, 0, p.N) {
				return fmt.Errorf("schedule: op %d: diagonal positions %v are not strictly ascending locations", i, op.Positions)
			}
			for _, d := range op.Diag {
				if !(math.Abs(real(d)*real(d)+imag(d)*imag(d)-1) <= unitaryTol) {
					return fmt.Errorf("schedule: op %d: diagonal entry %v is not unimodular", i, d)
				}
			}
		case OpLocalPerm:
			if !isPermutation(op.Perm, p.L) {
				return fmt.Errorf("schedule: op %d: perm %v is not a permutation of 0…%d", i, op.Perm, p.L-1)
			}
		case OpSwap:
			if len(op.LocalPos) != len(op.GlobalPos) || len(op.LocalPos) == 0 {
				return fmt.Errorf("schedule: op %d: unbalanced swap", i)
			}
			// The exchange engines move the top q local locations, in order.
			q := len(op.LocalPos)
			for j, pos := range op.LocalPos {
				if pos != p.L-q+j {
					return fmt.Errorf("schedule: op %d: swap local positions %v are not the top %d local locations", i, op.LocalPos, q)
				}
			}
			if !distinctIn(op.GlobalPos, p.L, p.N) {
				return fmt.Errorf("schedule: op %d: swap global positions %v are not distinct locations in [%d,%d)", i, op.GlobalPos, p.L, p.N)
			}
			if op.Perm != nil && !isPermutation(op.Perm, p.L) {
				return fmt.Errorf("schedule: op %d: fused perm %v is not a permutation of 0…%d", i, op.Perm, p.L-1)
			}
		default:
			return fmt.Errorf("schedule: op %d: unknown kind %d", i, int(op.Kind))
		}
	}
	return nil
}

// isPermutation reports whether perm is a bijection on [0, n).
func isPermutation(perm []int, n int) bool {
	return len(perm) == n && distinctIn(perm, 0, n)
}

// distinctIn reports whether the xs are pairwise distinct and in [lo, hi).
func distinctIn(xs []int, lo, hi int) bool {
	seen := make([]bool, hi-lo)
	for _, x := range xs {
		if x < lo || x >= hi || seen[x-lo] {
			return false
		}
		seen[x-lo] = true
	}
	return true
}

// ascending reports whether xs ascend strictly within [lo, hi).
func ascending(xs []int, lo, hi int) bool {
	for j, x := range xs {
		if x < lo || x >= hi || (j > 0 && xs[j-1] >= x) {
			return false
		}
	}
	return true
}
