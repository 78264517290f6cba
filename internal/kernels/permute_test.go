package kernels

import (
	"math/rand"
	"testing"
)

// naiveMap is the bit-by-bit reference for the compiled shift-mask map.
func naiveMap(perm []int, i int) int {
	out := 0
	for p := range perm {
		if i&(1<<p) != 0 {
			out |= 1 << perm[p]
		}
	}
	return out
}

func TestBitPermutationMapMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		perm := rng.Perm(n)
		bp := CompileBitPermutation(perm)
		for i := 0; i < 1<<n; i++ {
			if got, want := bp.Map(i), naiveMap(perm, i); got != want {
				t.Fatalf("perm %v: Map(%d) = %d, want %d", perm, i, got, want)
			}
			if got := bp.MapInverse(bp.Map(i)); got != i {
				t.Fatalf("perm %v: MapInverse(Map(%d)) = %d", perm, i, got)
			}
		}
	}
}

func TestBitPermutationCycles(t *testing.T) {
	bp := CompileBitPermutation([]int{0, 1, 2})
	if !bp.Identity() || len(bp.Cycles()) != 0 {
		t.Errorf("identity permutation reported cycles %v", bp.Cycles())
	}
	bp = CompileBitPermutation([]int{1, 0, 2})
	a, b, ok := bp.Transposition()
	if !ok || a != 0 || b != 1 {
		t.Errorf("transposition not detected: cycles %v", bp.Cycles())
	}
	// (0 1 2)(3 4) — two cycles, not a single transposition.
	bp = CompileBitPermutation([]int{1, 2, 0, 4, 3})
	if _, _, ok := bp.Transposition(); ok {
		t.Error("multi-cycle permutation reported as transposition")
	}
	if got := len(bp.Cycles()); got != 2 {
		t.Errorf("cycle count %d, want 2", got)
	}
}

func TestPermuteInto(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		perm := rng.Perm(n)
		src := make([]complex128, 1<<n)
		for i := range src {
			src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		dst := make([]complex128, len(src))
		PermuteInto(dst, src, CompileBitPermutation(perm))
		for i, a := range src {
			if dst[naiveMap(perm, i)] != a {
				t.Fatalf("perm %v: src[%d] not found at Map(%d)", perm, i, i)
			}
		}
	}
}

// TestPermute checks the three forms Permute picks between — no pass,
// an in-place SwapBits, a gather into scratch — in both precisions, with
// the permutation acting on the low bits of every sub-block of a longer
// state.
func TestPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, perm := range [][]int{{0, 1, 2, 3}, {0, 3, 2, 1}, rng.Perm(4), {2, 0, 3, 1}} {
		checkPermute(t, rng, perm, complex128(0))
		checkPermute(t, rng, perm, complex64(0))
	}
}

func checkPermute[T complexAmp](t *testing.T, rng *rand.Rand, perm []int, _ T) {
	t.Helper()
	const n = 7 // 2^(n−len(perm)) sub-blocks
	bp := CompileBitPermutation(perm)
	src := make([]T, 1<<n)
	for i := range src {
		src[i] = T(complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	amps := append([]T(nil), src...)
	out := Permute(amps, nil, bp)
	inPlace := &out[0] == &amps[0]
	if _, _, swap := bp.Transposition(); inPlace != (bp.Identity() || swap) {
		t.Fatalf("perm %v: result in place = %v", perm, inPlace)
	}
	low := 1<<len(perm) - 1
	for i, a := range src {
		if out[i&^low|naiveMap(perm, i&low)] != a {
			t.Fatalf("%T perm %v: src[%d] misplaced", a, perm, i)
		}
	}
}

func TestPermuteGather(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(16) // cover both the plain and the tiled path
		perm := rng.Perm(n)
		bp := CompileBitPermutation(perm)
		src := make([]complex128, 1<<n)
		for i := range src {
			src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		// Split the index space into 2^q chunks by the top q bits and gather
		// each separately; stitched together they must equal the full gather.
		q := rng.Intn(n)
		chunk := len(src) >> q
		got := make([]complex128, len(src))
		for m := 0; m < 1<<q; m++ {
			PermuteGather(got[m*chunk:(m+1)*chunk], src, bp, m*chunk)
		}
		want := make([]complex128, len(src))
		PermuteInto(want, src, bp)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("perm %v q=%d: chunked gather differs at %d", perm, q, i)
			}
		}
	}
}

func TestPermuteGatherRejectsBadArgs(t *testing.T) {
	bp := CompileBitPermutation([]int{1, 0, 2})
	src := make([]complex128, 8)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("non-power-of-two chunk", func() {
		PermuteGather(make([]complex128, 3), src, bp, 0)
	})
	mustPanic("base overlapping chunk bits", func() {
		PermuteGather(make([]complex128, 4), src, bp, 2)
	})
}

// permFromBytes decodes fuzz bytes into a permutation via repeated
// Fisher–Yates picks, so every byte string yields a valid permutation.
func permFromBytes(data []byte) []int {
	n := 1 + int(len(data)%16)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i, b := range data {
		j := i % n
		k := int(b) % n
		perm[j], perm[k] = perm[k], perm[j]
	}
	return perm
}

// FuzzBitPermutation checks the compiled shift-mask map and the cycle
// decomposition against bit-by-bit references on arbitrary permutations.
func FuzzBitPermutation(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		perm := permFromBytes(data)
		n := len(perm)
		bp := CompileBitPermutation(perm)
		// The compiled map must agree with the naive per-bit map.
		probe := 1 << n
		if probe > 1<<12 {
			probe = 1 << 12
		}
		for i := 0; i < probe; i++ {
			if bp.Map(i) != naiveMap(perm, i) {
				t.Fatalf("perm %v: Map(%d) = %d, want %d", perm, i, bp.Map(i), naiveMap(perm, i))
			}
			if bp.MapInverse(bp.Map(i)) != i {
				t.Fatalf("perm %v: inverse does not round-trip %d", perm, i)
			}
		}
		// Replaying the cycles must reconstruct the permutation exactly,
		// and every non-fixed point must appear in exactly one cycle.
		rebuilt := make([]int, n)
		for i := range rebuilt {
			rebuilt[i] = i
		}
		seen := map[int]bool{}
		for _, cyc := range bp.Cycles() {
			if len(cyc) < 2 {
				t.Fatalf("perm %v: trivial cycle %v", perm, cyc)
			}
			for i, p := range cyc {
				if seen[p] {
					t.Fatalf("perm %v: position %d in two cycles", perm, p)
				}
				seen[p] = true
				rebuilt[p] = cyc[(i+1)%len(cyc)]
			}
		}
		for p := range perm {
			if rebuilt[p] != perm[p] {
				t.Fatalf("perm %v: cycles %v rebuild to %v", perm, bp.Cycles(), rebuilt)
			}
		}
	})
}
