package kernels

import (
	"math/bits"
	"sort"

	"qusim/internal/par"
)

// The diagonal sweep (Sec. 3.5 gate specialization): multiply each
// amplitude by the diagonal entry selected by the bits of its index at
// positions qs — no communication, no matvec. Per amplitude, an entry
// exactly 1 leaves it untouched (for the phase-type diagonals of the
// supremacy gate set — T, S, CZ, controlled-phase — most of the state), −1
// negates it, and anything else multiplies it, complex64 on split float32
// scalars. A diagonal over no positions is a global scalar for Scale.

// diagPeriodMax bounds the positions whose entry pattern the sweep
// compiles: the positions below it repeat every period of at most
// 2^diagPeriodMax indices, which keeps each compiled segment list small.
const diagPeriodMax = 13

// ApplyDiagonal multiplies each amplitude by the diagonal entry d[x],
// where x gathers the index bits at the ascending positions qs.
//
//qusim:hot
func ApplyDiagonal(amps []complex128, d []complex128, qs []int) {
	applyDiag(amps, d, qs)
}

// ApplyDiagonalF32 is ApplyDiagonal in single precision.
//
//qusim:hot
func ApplyDiagonalF32(amps []complex64, d []complex64, qs []int) {
	applyDiag(amps, d, qs)
}

// czDiag and zDiag are the diagonals ApplyCZ sweeps; read only.
var (
	czDiag = []complex128{1, 1, 1, -1}
	zDiag  = []complex128{1, -1}
)

// ApplyCZ applies a controlled-Z between bit positions a and b without a
// matrix: amplitudes with both bits set are negated (a Z when a == b).
//
//qusim:hot
func ApplyCZ(amps []complex128, a, b int) {
	switch {
	case a == b:
		applyDiag(amps, zDiag, []int{a})
	case a < b:
		applyDiag(amps, czDiag, []int{a, b})
	default:
		applyDiag(amps, czDiag, []int{b, a})
	}
}

// applyDiag is ApplyDiagonal at either precision.
func applyDiag[T complexAmp](amps, d []T, qs []int) {
	k := len(qs)
	if len(d) != 1<<k {
		panic("kernels: diagonal length mismatch")
	}
	if k > 0 {
		applyDiagBlocked(amps, d, qs)
	} else if d[0] != 1 {
		switch a := any(amps).(type) {
		case []complex128:
			Scale(a, any(d[0]).(complex128))
		case []complex64:
			ScaleF32(a, any(d[0]).(complex64))
		}
	}
}

// diagSegment is one maximal run of identical non-unit diagonal entries
// within a period of the index pattern.
type diagSegment[T complexAmp] struct {
	off, n int
	dx     T
}

// complexAmp constrains the two amplitude element types.
type complexAmp interface{ complex64 | complex128 }

// diagSegments compiles the entries of d hit across one period of the
// index pattern at positions qs into maximal contiguous non-unit segments.
// The entry is constant across runs of 2^qs[0] indices (the whole period
// when qs is empty), so it is looked up once per run.
func diagSegments[T complexAmp](d []T, qs []int, period int) []diagSegment[T] {
	run := period
	if len(qs) > 0 {
		run = 1 << qs[0]
	}
	var segs []diagSegment[T]
	for i := 0; i < period; i += run {
		x := 0
		for j, q := range qs {
			x |= (i >> q & 1) << j
		}
		dx := d[x]
		if dx == 1 {
			continue
		}
		if n := len(segs); n > 0 && segs[n-1].dx == dx && segs[n-1].off+segs[n-1].n == i {
			segs[n-1].n += run
			continue
		}
		segs = append(segs, diagSegment[T]{off: i, n: run, dx: dx})
	}
	return segs
}

// applyDiagBlocked is the diagonal sweep. The nl positions below
// diagPeriodMax repeat their entry pattern every period = 2^(qs[nl-1]+1)
// indices (2^qs[0] when nl = 0); the positions above select, per block of
// 2^qs[nl] amplitudes, which sub-diagonal d[g<<nl:(g+1)<<nl] that pattern
// takes — the reduction ApplyBlock makes for global bits. Each
// sub-diagonal's period is compiled once into its non-unit segments, and
// a block replays its list period by period: one bit gather per block, no
// per-index bit extraction, and indices with unit entries are never
// visited. With no position above (a period-only diagonal) g = 0 and the
// whole state is one block; with none below, a period is one run of
// 2^qs[0] amplitudes under a single entry.
func applyDiagBlocked[T complexAmp](amps, d []T, qs []int) {
	nl := sort.SearchInts(qs, diagPeriodMax)
	low, high := qs[:nl], qs[nl:]
	logPeriod := qs[0]
	if nl > 0 {
		logPeriod = low[nl-1] + 1
	}
	period := 1 << logPeriod
	periods := len(amps) / period
	lists := make([][]diagSegment[T], 1<<len(high))
	for g := range lists {
		lists[g] = diagSegments(d[g<<nl:(g+1)<<nl], low, period)
	}
	// Periods per block, as a shift: g is constant across a block.
	shift := bits.Len(uint(periods))
	if len(high) > 0 {
		shift = high[0] - logPeriod
	}
	par.For(periods, max(1, 8192/period), func(lo, hi int) {
		for p := lo; p < hi; {
			end := min(hi, (p>>shift+1)<<shift)
			g := 0
			for j, q := range high {
				g |= (p << logPeriod >> q & 1) << j
			}
			if segs := lists[g]; len(segs) > 0 {
				replay(amps[p<<logPeriod:end<<logPeriod], segs, period)
			}
			p = end
		}
	})
}

// replay applies segs to every period of amps. The precision is switched
// once per call rather than per segment: segments are often one or two
// amplitudes long, and a per-segment type switch made the period-only
// sweep ~15% slower.
func replay[T complexAmp](amps []T, segs []diagSegment[T], period int) {
	switch a := any(amps).(type) {
	case []complex128:
		ss := any(segs).([]diagSegment[complex128])
		for base := 0; base < len(a); base += period {
			for _, s := range ss {
				blk := a[base+s.off : base+s.off+s.n : base+s.off+s.n]
				if s.dx == -1 {
					for j := range blk {
						blk[j] = -blk[j]
					}
					continue
				}
				for j := range blk {
					blk[j] *= s.dx
				}
			}
		}
	case []complex64:
		ss := any(segs).([]diagSegment[complex64])
		for base := 0; base < len(a); base += period {
			for _, s := range ss {
				blk := a[base+s.off : base+s.off+s.n : base+s.off+s.n]
				if s.dx == -1 {
					for j := range blk {
						blk[j] = -blk[j]
					}
					continue
				}
				cr, ci := real(s.dx), imag(s.dx)
				for j := range blk {
					x := blk[j]
					ar, ai := real(x), imag(x)
					blk[j] = complex(ar*cr-ai*ci, ai*cr+ar*ci)
				}
			}
		}
	}
}
