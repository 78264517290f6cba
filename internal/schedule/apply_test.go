package schedule

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"qusim/internal/gate"
	"qusim/internal/kernels"
)

// blockOps returns one op of every kind ApplyBlock executes on an n-qubit
// state split into 2^l-amplitude blocks: clusters, diagonals that are
// local, mixed local/global and purely global, local permutations (a
// general one, a lone transposition, the identity) and swaps with and
// without a fused permutation.
func blockOps(rng *rand.Rand, n, l int) []Op {
	diag := func(positions ...int) Op {
		d := make([]complex128, 1<<len(positions))
		for i := range d {
			d[i] = cmplx.Rect(1, 2*math.Pi*rng.Float64())
		}
		d[0] = 1  // skipped entry
		d[1] = -1 // negated entry
		return Op{Kind: OpDiagonal, Diag: d, Positions: positions}
	}
	cluster := func(positions ...int) Op {
		return Op{Kind: OpCluster, Matrix: randomUnitary(rng, len(positions)), Positions: positions}
	}
	return []Op{
		cluster(0),
		cluster(1, 4),
		cluster(0, 2, 3),
		diag(0, 3),
		diag(2, 5, 7),
		diag(l-1, l),
		diag(5, 6),
		diag(n - 1),
		{Kind: OpLocalPerm, Perm: rng.Perm(l)},
		{Kind: OpLocalPerm, Perm: []int{3, 1, 2, 0, 4}},
		{Kind: OpLocalPerm, Perm: []int{0, 1, 2, 3, 4}},
		{Kind: OpSwap, LocalPos: []int{l - 1}, GlobalPos: []int{n - 1}, Perm: rng.Perm(l)},
		{Kind: OpSwap, LocalPos: []int{l - 2, l - 1}, GlobalPos: []int{5, 6}},
	}
}

// randomUnitary returns a Gram–Schmidt-orthonormalized random k-qubit
// matrix, so every matrix entry is exercised.
func randomUnitary(rng *rand.Rand, k int) gate.Matrix {
	d := 1 << k
	m := gate.New(k)
	for c := 0; c < d; c++ {
		col := make([]complex128, d)
		for r := range col {
			col[r] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for p := 0; p < c; p++ {
			var dot complex128
			for r := 0; r < d; r++ {
				dot += cmplx.Conj(m.At(r, p)) * col[r]
			}
			for r := range col {
				col[r] -= dot * m.At(r, p)
			}
		}
		var norm float64
		for _, x := range col {
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		for r, x := range col {
			m.Set(r, c, x/complex(math.Sqrt(norm), 0))
		}
	}
	return m
}

// TestApplyBlockMatchesFullVector runs every op kind through ApplyBlock on
// each 2^l-amplitude block of an n-qubit state — the distributed rank loop
// and the out-of-core chunk loop — and requires the result to equal the
// same op applied to the whole 2^n vector as one block (in-memory
// execution) bit for bit, in both precisions.
func TestApplyBlockMatchesFullVector(t *testing.T) {
	const n, l = 8, 5
	rng := rand.New(rand.NewSource(12))
	ops := blockOps(rng, n, l)
	state := make([]complex128, 1<<n)
	for i := range state {
		state[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for i := range ops {
		op := &ops[i]
		t.Run(fmt.Sprintf("%d-%v", i, op.Kind), func(t *testing.T) {
			checkBlocksMatchFull(t, op, n, l, state)
			state64 := make([]complex64, len(state))
			for j, a := range state {
				state64[j] = complex64(a)
			}
			checkBlocksMatchFull(t, op, n, l, state64)
		})
	}
}

func checkBlocksMatchFull[T complex64 | complex128](t *testing.T, op *Op, n, l int, state []T) {
	t.Helper()
	full := append([]T(nil), state...)
	var scratch []T
	if err := ApplyBlock(op, 0, &full, &scratch, kernels.Auto); err != nil {
		t.Fatal(err)
	}
	var blockScratch []T
	for blk := 0; blk < 1<<(n-l); blk++ {
		amps := append([]T(nil), state[blk<<l:(blk+1)<<l]...)
		if err := ApplyBlock(op, blk, &amps, &blockScratch, kernels.Auto); err != nil {
			t.Fatal(err)
		}
		for j, a := range amps {
			if want := full[blk<<l|j]; a != want {
				t.Fatalf("%T block %d amplitude %d: got %v, whole vector gives %v", a, blk, j, a, want)
			}
		}
	}
	if op.Kind == OpCluster || op.Kind == OpDiagonal {
		same := true
		for j := range full {
			same = same && full[j] == state[j]
		}
		if same {
			t.Fatalf("%v left the state unchanged", op.Kind)
		}
	}
}

func TestApplyBlockRejectsUnknownKind(t *testing.T) {
	amps := make([]complex128, 4)
	var scratch []complex128
	if err := ApplyBlock(&Op{Kind: OpKind(99)}, 0, &amps, &scratch, kernels.Auto); err == nil {
		t.Error("unknown op kind accepted")
	}
}
