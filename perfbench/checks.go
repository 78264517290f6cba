package main

import (
	"fmt"
	"math"
	"math/cmplx"

	"qusim/internal/circuit"
	"qusim/internal/xeb"
)

// Tolerances of the correctness checks.
const (
	// tolF64 and tolF32 bound, per precision, the norm's distance from 1
	// and a supremacy state's distance from its gate-by-gate reference.
	tolF64 = 1e-9
	tolF32 = 5e-4
	// qaoaEntropyTol bounds the distance between a distributed or
	// out-of-core entropy and the in-memory Plan.Run of the same plan
	// (observed differences are about 2e-9: summation order only).
	qaoaEntropyTol = 1e-8
	// sigmas is the width, in standard errors of the estimator, of the
	// band a sampled score must fall in around its exact value.
	sigmas = 6
)

// checks collects the failed checks of one answer.
type checks []string

func (c *checks) within(label string, got, lo, hi float64) {
	if !(got >= lo && got <= hi) { // NaN fails
		*c = append(*c, fmt.Sprintf("%s = %.6g, want [%.6g, %.6g]", label, got, lo, hi))
	}
}

// same requires bit-for-bit equality, as a resumed run must reproduce the
// uninterrupted one.
func (c *checks) same(label string, got, want float64) {
	if math.Float64bits(got) != math.Float64bits(want) {
		*c = append(*c, fmt.Sprintf("%s = %.17g, uninterrupted run gave %.17g", label, got, want))
	}
}

// exact compares a layer's report with the plan-derived count.
func (c *checks) exact(label string, reported, derived int64) {
	if reported != derived {
		*c = append(*c, fmt.Sprintf("%s: layer reports %d, plan gives %d", label, reported, derived))
	}
}

// entropy returns the Shannon entropy of probs in nats and their sum.
func entropy(probs []float64) (ent, norm float64) {
	for _, p := range probs {
		norm += p
		if p > 0 {
			ent -= p * math.Log(p)
		}
	}
	return ent, norm
}

// checkSupremacy checks a random-circuit answer: the norm, Porter–Thomas
// convergence of the output distribution, and the linear XEB of the ideal
// samples within sigmas standard errors of the circuit's exact score.
// These hold for any chaotic circuit, a wrongly computed one too; the
// answer's own correctness is checkReference's.
//
// The 11×2 ladder that GridForQubits(22) yields anticoncentrates slowly:
// over 45 depth-25 seeds the entropy stayed above 0.978·S_PT, but the KS
// distance reached 0.158 and the exact score 2.2. The bounds below hold
// for the family with margin (the score band is the one internal/workload
// uses for small instances).
func checkSupremacy(c *checks, n int, probs []float64, tol, score float64, shots int) {
	ent, norm := entropy(probs)
	c.within("norm", norm, 1-tol, 1+tol)
	c.within("entropy/S_PT", ent/xeb.PorterThomasEntropy(n), 0.95, 1.05)
	c.within("Porter-Thomas KS", xeb.PorterThomasKS(probs), 0, 0.25)

	// Per ideal sample x the estimator adds X = 2^n·p(x) − 1, so
	// E[X] = 2^n·Σp² − 1 and E[X²] = 4^n·Σp³ − 2·2^n·Σp² + 1.
	dim := math.Ldexp(1, n)
	var s2, s3 float64
	for _, p := range probs {
		s2 += p * p
		s3 += p * p * p
	}
	exact := dim*s2 - 1
	sd := math.Sqrt(math.Max(dim*dim*s3-2*dim*s2+1-exact*exact, 0) / float64(shots))
	c.within("exact linear XEB", exact, 0.5, 4)
	c.within("ideal-sample linear XEB", score, exact-sigmas*sd, exact+sigmas*sd)
}

// checkReference bounds the distance, up to a global phase, between a
// supremacy state and the gate-by-gate reference of its circuit:
// min over φ of ‖ψ − e^{iφ}·ref‖₂. amp(y) is the state's amplitude at bit
// location y; finalPos maps the reference's qubits to bit locations. Any
// fault that keeps the state unitary but wrong, such as a wrong target
// qubit or a transposed matrix, moves it by order one.
func checkReference(c *checks, ref []complex128, finalPos []int, amp func(y int) complex128, tol float64) {
	loc := layout(finalPos)
	var ip complex128
	for x, r := range ref {
		ip += cmplx.Conj(r) * amp(loc(x))
	}
	phase := complex(1, 0)
	if a := cmplx.Abs(ip); a > 0 {
		phase = ip / complex(a, 0)
	}
	// Summed term by term: 2 − 2|⟨ref|ψ⟩| would cancel to rounding noise.
	var d2 float64
	for x, r := range ref {
		d := amp(loc(x)) - phase*r
		d2 += real(d)*real(d) + imag(d)*imag(d)
	}
	c.within("distance to the gate-by-gate reference", math.Sqrt(d2), 0, tol)
}

// layout returns the map from a basis index in qubit order to its bit
// location under finalPos, looked up in two half-width tables.
func layout(finalPos []int) func(x int) int {
	table := func(pos []int) []int {
		t := make([]int, 1<<len(pos))
		for x := range t {
			for j, p := range pos {
				if x>>j&1 == 1 {
					t[x] |= 1 << p
				}
			}
		}
		return t
	}
	h := len(finalPos) / 2
	lo, hi := table(finalPos[:h]), table(finalPos[h:])
	mask := 1<<h - 1
	return func(x int) int { return lo[x&mask] | hi[x>>h] }
}

// checkQAOA checks a QAOA answer against the in-memory reference of the
// same plan: norm and entropy, and the sampled mean cut within sigmas
// standard errors of the exact expectation (refProbs in the plan's final
// bit layout, finalPos mapping qubits to bit locations).
func checkQAOA(c *checks, norm, ent, refEnt float64, refProbs []float64, finalPos []int, samples []int) {
	c.within("norm", norm, 1-tolF64, 1+tolF64)
	c.within("entropy − reference", ent-refEnt, -qaoaEntropyTol, qaoaEntropyTol)
	if samples == nil {
		return
	}
	edges := circuit.RingEdges(len(finalPos))
	var m1, m2 float64
	for x, p := range refProbs {
		if p == 0 {
			continue
		}
		cut := 0.0
		for _, e := range edges {
			if (x>>finalPos[e.A])&1 != (x>>finalPos[e.B])&1 {
				cut++
			}
		}
		m1 += p * cut
		m2 += p * cut * cut
	}
	sd := math.Sqrt(math.Max(m2-m1*m1, 0) / float64(len(samples)))
	c.within("sampled mean cut", meanCut(samples, edges), m1-sigmas*sd-1e-9, m1+sigmas*sd+1e-9)
}

// checkResume requires the resumed answer to match the uninterrupted one
// bit for bit: every output probability — and so the norm and entropy
// summed from them in the same order — and the XEB score.
func checkResume(c *checks, probs, probs2 []float64, score, score2 float64) {
	if len(probs2) != len(probs) {
		*c = append(*c, fmt.Sprintf("resumed state has %d probabilities, want %d", len(probs2), len(probs)))
		return
	}
	for j := range probs {
		if math.Float64bits(probs2[j]) != math.Float64bits(probs[j]) {
			c.same(fmt.Sprintf("resumed probability %d", j), probs2[j], probs[j])
			break
		}
	}
	c.same("resumed XEB", score2, score)
}

// meanCut is the sampled MaxCut estimate: the mean number of ring edges
// whose endpoints disagree, over logical basis-state samples.
func meanCut(samples []int, edges []circuit.Bond) float64 {
	total := 0
	for _, x := range samples {
		for _, e := range edges {
			if (x>>e.A)&1 != (x>>e.B)&1 {
				total++
			}
		}
	}
	return float64(total) / float64(len(samples))
}
