package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// diagShapeQubits sizes the diagonal-shape tests: above diagPeriodMax, so
// shapes with high positions reach every path of the sweep.
const diagShapeQubits = 16

// diagReference applies d at positions qs index by index under the rules
// every path of the sweep follows: an entry of 1 leaves the amplitude
// alone, −1 negates it, anything else multiplies it (on split float32
// scalars in single precision).
func diagReference[T complexAmp](amps, d []T, qs []int) {
	for i, a := range amps {
		x := 0
		for j, q := range qs {
			x |= (i >> q & 1) << j
		}
		switch dx := d[x]; {
		case dx == 1:
		case dx == -1:
			amps[i] = -a
		default:
			switch a := any(a).(type) {
			case complex128:
				amps[i] = any(a * any(dx).(complex128)).(T)
			case complex64:
				c := any(dx).(complex64)
				ar, ai, cr, ci := real(a), imag(a), real(c), imag(c)
				amps[i] = any(complex(ar*cr-ai*ci, ai*cr+ar*ci)).(T)
			}
		}
	}
}

// checkDiagonal runs ApplyDiagonal (or ApplyDiagonalF32) and the reference
// on the same random state and reports the first bitwise mismatch.
func checkDiagonal[T complexAmp](rng *rand.Rand, d []T, qs []int) error {
	amps := make([]T, 1<<diagShapeQubits)
	for i := range amps {
		amps[i] = T(complex(rng.NormFloat64(), rng.NormFloat64()))
	}
	want := append([]T(nil), amps...)
	diagReference(want, d, qs)
	switch a := any(amps).(type) {
	case []complex128:
		ApplyDiagonal(a, any(d).([]complex128), qs)
	case []complex64:
		ApplyDiagonalF32(a, any(d).([]complex64), qs)
	}
	for i := range amps {
		if amps[i] != want[i] {
			return fmt.Errorf("amps[%d] = %v, want %v", i, amps[i], want[i])
		}
	}
	return nil
}

// diagEntry maps a byte to a diagonal entry: 1, −1 or a phase.
func diagEntry(b byte) complex128 {
	switch b % 3 {
	case 0:
		return 1
	case 1:
		return -1
	}
	phi := float64(b) * 2 * math.Pi / 256
	return complex(math.Cos(phi), math.Sin(phi))
}

// diagShapes lists position sets for k = 1…5 on diagShapeQubits qubits,
// covering each path of the sweep: every position below diagPeriodMax
// (period only), low positions with a high one for q0 = 0…5 (blocked),
// every position at or above diagPeriodMax, and q0 ≥ 6 (runs of ≥ 64).
func diagShapes(rng *rand.Rand) [][]int {
	// draw returns q0 plus k−1 distinct positions above it, at least
	// minHigh of them at or above diagPeriodMax.
	draw := func(k, q0, minHigh int) []int {
		lo := max(q0+1, diagPeriodMax)
		capLow, capHigh := max(0, diagPeriodMax-q0-1), diagShapeQubits-lo
		nHigh := max(minHigh, k-1-capLow)
		nHigh += rng.Intn(min(k-1, capHigh) - nHigh + 1)
		qs := []int{q0}
		for _, p := range rng.Perm(capLow)[:k-1-nHigh] {
			qs = append(qs, q0+1+p)
		}
		for _, p := range rng.Perm(capHigh)[:nHigh] {
			qs = append(qs, lo+p)
		}
		sort.Ints(qs)
		return qs
	}
	var shapes [][]int
	for k := 1; k <= 5; k++ {
		for q0 := 0; q0 < 6; q0++ {
			shapes = append(shapes, draw(k, q0, 0)) // may draw no high position
			if k > 1 {
				shapes = append(shapes, draw(k, q0, 1))
			}
		}
		if k <= diagShapeQubits-diagPeriodMax {
			shapes = append(shapes, draw(k, diagPeriodMax, 0))
		}
		for q0 := 6; q0 <= min(12, diagShapeQubits-k); q0 += 2 {
			shapes = append(shapes, draw(k, q0, 0))
		}
	}
	return shapes
}

// TestApplyDiagonalShapes holds every path of the diagonal sweep, in both
// precisions, bitwise to the per-index reference.
func TestApplyDiagonalShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	shapes := append([][]int{{}}, diagShapes(rng)...)
	for _, qs := range shapes {
		for trial := 0; trial < 2; trial++ {
			d := make([]complex128, 1<<len(qs))
			for x := range d {
				d[x] = diagEntry(byte(rng.Intn(256)))
			}
			if err := checkDiagonal(rng, d, qs); err != nil {
				t.Errorf("f64 qs=%v d=%v: %v", qs, d, err)
			}
			if err := checkDiagonal(rng, ToComplex64(d), qs); err != nil {
				t.Errorf("f32 qs=%v d=%v: %v", qs, d, err)
			}
		}
	}
}

// FuzzApplyDiagonal holds the sweep bitwise to the per-index reference on
// fuzzed shapes: the set bits of mask are the positions (at most 5), the
// entry bytes pick 1, −1 or a phase per entry, and f32 the precision.
func FuzzApplyDiagonal(f *testing.F) {
	f.Add(uint16(0b11111), []byte{0, 1, 2, 3, 4, 5}, false)
	f.Add(uint16(1<<0|1<<15), []byte{0, 0, 0, 1}, true)
	f.Add(uint16(1<<2|1<<9|1<<14), []byte{7, 8, 200}, false)
	f.Add(uint16(1<<13|1<<15), []byte{1, 2}, true)
	f.Add(uint16(1<<7|1<<12), []byte{2}, false)
	f.Fuzz(func(t *testing.T, mask uint16, entries []byte, f32 bool) {
		if bits.OnesCount16(mask) > 5 {
			return
		}
		var qs []int
		for q := 0; q < diagShapeQubits; q++ {
			if mask>>q&1 == 1 {
				qs = append(qs, q)
			}
		}
		d := make([]complex128, 1<<len(qs))
		for x := range d {
			if len(entries) > 0 {
				d[x] = diagEntry(entries[x%len(entries)])
			} else {
				d[x] = 1
			}
		}
		rng := rand.New(rand.NewSource(int64(mask)))
		var err error
		if f32 {
			err = checkDiagonal(rng, ToComplex64(d), qs)
		} else {
			err = checkDiagonal(rng, d, qs)
		}
		if err != nil {
			t.Fatalf("f32=%v qs=%v d=%v: %v", f32, qs, d, err)
		}
	})
}
