// Package gate provides dense unitary matrices acting on small numbers of
// qubits, the standard gate set used by quantum supremacy circuits, and the
// embedding/fusion machinery that merges a sequence of 1- and 2-qubit gates
// into a single k-qubit gate matrix (Sec. 3.6.1, step 2 of Häner & Steiger,
// SC'17).
//
// Conventions: qubit j of a k-qubit matrix corresponds to bit j (the j-th
// least significant bit) of the row/column index. Basis state |b_{k-1}…b_1
// b_0⟩ has index Σ b_j 2^j.
package gate

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense, row-major complex matrix acting on K qubits.
// Its dimension is 2^K × 2^K.
type Matrix struct {
	K    int          // number of qubits the matrix acts on
	Data []complex128 // row-major, len = (1<<K) * (1<<K)
}

// New returns a zero matrix on k qubits.
func New(k int) Matrix {
	if k < 0 || k > 30 {
		panic(fmt.Sprintf("gate: invalid qubit count %d", k))
	}
	d := 1 << k
	return Matrix{K: k, Data: make([]complex128, d*d)}
}

// Identity returns the identity matrix on k qubits.
func Identity(k int) Matrix {
	m := New(k)
	d := m.Dim()
	for i := 0; i < d; i++ {
		m.Data[i*d+i] = 1
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must have equal,
// power-of-two length 2^k with 2^k rows.
func FromRows(rows [][]complex128) Matrix {
	d := len(rows)
	k := 0
	for 1<<k < d {
		k++
	}
	if 1<<k != d {
		panic(fmt.Sprintf("gate: dimension %d is not a power of two", d))
	}
	m := New(k)
	for r, row := range rows {
		if len(row) != d {
			panic(fmt.Sprintf("gate: row %d has length %d, want %d", r, len(row), d))
		}
		copy(m.Data[r*d:(r+1)*d], row)
	}
	return m
}

// Dim returns the matrix dimension 2^K.
func (m Matrix) Dim() int { return 1 << m.K }

// At returns element (r, c).
func (m Matrix) At(r, c int) complex128 { return m.Data[r*m.Dim()+c] }

// Set assigns element (r, c).
func (m Matrix) Set(r, c int, v complex128) { m.Data[r*m.Dim()+c] = v }

// Clone returns a deep copy of m.
func (m Matrix) Clone() Matrix {
	c := Matrix{K: m.K, Data: make([]complex128, len(m.Data))}
	copy(c.Data, m.Data)
	return c
}

// Mul returns the matrix product a·b. Both operands must act on the same
// number of qubits.
func Mul(a, b Matrix) Matrix {
	if a.K != b.K {
		panic(fmt.Sprintf("gate: Mul dimension mismatch: %d vs %d qubits", a.K, b.K))
	}
	d := a.Dim()
	out := New(a.K)
	for r := 0; r < d; r++ {
		arow := a.Data[r*d : (r+1)*d]
		orow := out.Data[r*d : (r+1)*d]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[i*d : (i+1)*d]
			for c, bv := range brow {
				orow[c] += av * bv
			}
		}
	}
	return out
}

// Kron returns the Kronecker product a⊗b: a acts on the high-order qubits,
// b on the low-order qubits, matching the 1⊗…⊗U⊗…⊗1 construction of Sec. 2.
func Kron(a, b Matrix) Matrix {
	out := New(a.K + b.K)
	da, db, d := a.Dim(), b.Dim(), out.Dim()
	for ra := 0; ra < da; ra++ {
		for ca := 0; ca < da; ca++ {
			av := a.Data[ra*da+ca]
			if av == 0 {
				continue
			}
			for rb := 0; rb < db; rb++ {
				for cb := 0; cb < db; cb++ {
					out.Data[(ra*db+rb)*d+(ca*db+cb)] = av * b.Data[rb*db+cb]
				}
			}
		}
	}
	return out
}

// Dagger returns the conjugate transpose of m.
func (m Matrix) Dagger() Matrix {
	d := m.Dim()
	out := New(m.K)
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			out.Data[c*d+r] = cmplx.Conj(m.Data[r*d+c])
		}
	}
	return out
}

// Scale returns m multiplied by the scalar s.
func (m Matrix) Scale(s complex128) Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// IsUnitary reports whether m†m = 1 to within tol (max-norm of the
// residual). A NaN entry makes the matrix non-unitary.
func (m Matrix) IsUnitary(tol float64) bool {
	p := Mul(m.Dagger(), m)
	d := m.Dim()
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			want := complex128(0)
			if r == c {
				want = 1
			}
			if !(cmplx.Abs(p.Data[r*d+c]-want) <= tol) {
				return false
			}
		}
	}
	return true
}

// IsDiagonal reports whether all off-diagonal entries are ≤ tol in modulus.
// Diagonal gates are the ones the global-gate specialization of Sec. 3.5 can
// execute on global qubits without communication.
func (m Matrix) IsDiagonal(tol float64) bool {
	d := m.Dim()
	for r := 0; r < d; r++ {
		for c := 0; c < d; c++ {
			if r != c && cmplx.Abs(m.Data[r*d+c]) > tol {
				return false
			}
		}
	}
	return true
}

// Diagonal returns the diagonal entries of m.
func (m Matrix) Diagonal() []complex128 {
	d := m.Dim()
	out := make([]complex128, d)
	for i := 0; i < d; i++ {
		out[i] = m.Data[i*d+i]
	}
	return out
}

// ApproxEqual reports whether a and b agree element-wise to within tol.
func ApproxEqual(a, b Matrix, tol float64) bool {
	if a.K != b.K {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// EqualUpToGlobalPhase reports whether a = e^{iφ}·b for some φ, to within
// tol. Gate specialization absorbs global phases (Sec. 3.5), so fused
// matrices are compared modulo phase.
func EqualUpToGlobalPhase(a, b Matrix, tol float64) bool {
	if a.K != b.K {
		return false
	}
	// Find the largest-modulus entry of b to fix the phase.
	best, bi := 0.0, -1
	for i := range b.Data {
		if m := cmplx.Abs(b.Data[i]); m > best {
			best, bi = m, i
		}
	}
	if bi < 0 || best < tol {
		return ApproxEqual(a, b, tol)
	}
	if cmplx.Abs(a.Data[bi]) < tol {
		return false
	}
	phase := a.Data[bi] / b.Data[bi]
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-phase*b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m Matrix) String() string {
	d := m.Dim()
	s := fmt.Sprintf("Matrix(k=%d)[\n", m.K)
	for r := 0; r < d; r++ {
		s += " "
		for c := 0; c < d; c++ {
			v := m.Data[r*d+c]
			s += fmt.Sprintf(" (%6.3f%+6.3fi)", real(v), imag(v))
		}
		s += "\n"
	}
	return s + "]"
}
