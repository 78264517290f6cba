package schedule

import (
	"fmt"
	"math/bits"
	"sort"

	"qusim/internal/kernels"
)

// The block applier: the one interpreter of plan ops that every executor
// shares (Sec. 3.4–3.5). A state is processed in blocks of 2^b amplitudes
// whose index bits ≥ b are fixed by the block index — the rank of a
// distributed run (b = L), the chunk of a file-backed one (b = L), or the
// whole vector in memory (b = N, block 0). Local ops act on the block
// alone; a diagonal over locations ≥ b reduces to the sub-diagonal those
// fixed bits select (a per-block scalar when no location is in-block).
// Executors differ only in how they realize an OpSwap's exchange, which
// ApplyBlock leaves to them.

// ApplyBlock applies op to the block *amps with block index blk: an
// OpCluster through the kernel variant v, an OpDiagonal (its locations
// ≥ b read from blk), an OpLocalPerm, or the fused local permutation of an
// OpSwap (nothing when Perm is nil; the exchange itself is the caller's).
// Positions are used as given, so the plan must satisfy the invariants
// ReadPlan validates. A result that lands in the scratch block swaps the
// two slices; *scratch may be nil and is then allocated on first need,
// so callers keep scratch lazily.
func ApplyBlock[T complex64 | complex128](op *Op, blk int, amps, scratch *[]T, v kernels.Variant) error {
	var out []T
	switch op.Kind {
	case OpCluster:
		out = applyMatrix(v, *amps, op.Matrix.Data, op.Positions, *scratch)
	case OpDiagonal:
		// Positions ascend, so the in-block ones form a prefix.
		b := bits.TrailingZeros(uint(len(*amps)))
		nl := sort.SearchInts(op.Positions, b)
		g := 0
		for j, pos := range op.Positions[nl:] {
			g |= (blk >> (pos - b) & 1) << j
		}
		applyDiagonal(*amps, op.Diag[g<<nl:(g+1)<<nl], op.Positions[:nl])
		return nil
	case OpLocalPerm, OpSwap:
		if op.Perm == nil {
			return nil
		}
		out = kernels.Permute(*amps, *scratch, kernels.CompileBitPermutation(op.Perm))
	default:
		return fmt.Errorf("schedule: unknown op kind %v", op.Kind)
	}
	if &out[0] != &(*amps)[0] {
		*amps, *scratch = out, *amps
	}
	return nil
}

// applyMatrix runs a cluster kernel at the block's precision; complex64
// blocks get the matrix converted per call.
func applyMatrix[T complex64 | complex128](v kernels.Variant, amps []T, m []complex128, qs []int, scratch []T) []T {
	if a, ok := any(amps).([]complex64); ok {
		s := any(scratch).([]complex64)
		return any(kernels.ApplyF32(v, a, kernels.ToComplex64(m), qs, s)).([]T)
	}
	s := any(scratch).([]complex128)
	return any(kernels.Apply(v, any(amps).([]complex128), m, qs, s)).([]T)
}

// applyDiagonal runs the diagonal kernel at the block's precision. With no
// in-block positions d has one entry, which the kernel applies as a scalar
// (skipped when it is 1).
func applyDiagonal[T complex64 | complex128](amps []T, d []complex128, qs []int) {
	if a, ok := any(amps).([]complex64); ok {
		kernels.ApplyDiagonalF32(a, kernels.ToComplex64(d), qs)
		return
	}
	kernels.ApplyDiagonal(any(amps).([]complex128), d, qs)
}
