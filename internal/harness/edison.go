package harness

import (
	"fmt"
	"io"
	"math"

	"qusim/internal/circuit"
	"qusim/internal/dist"
	"qusim/internal/perfmodel"
	"qusim/internal/schedule"
	"qusim/internal/statevec"
)

// Sec. 4.2.2: the 36-qubit entropy calculation on 64 Edison sockets — 99 s
// total, 90.9 s simulation + 8.1 s entropy reduction, a >4x improvement
// over [5] on identical hardware. Modeled at paper scale; the entropy
// reduction itself is validated for real against single-node simulation.

func init() {
	register(Experiment{ID: "edison36", Title: "Sec. 4.2.2 — 36-qubit entropy run on Edison", Run: edison36})
}

func edison36(w io.Writer, cfg Config) error {
	header(w, "36-qubit depth-25 entropy run, 64 Edison sockets")
	m := perfmodel.EdisonSocket()
	nw := perfmodel.CrayAries()
	stats, err := planStats(36, 25, cfg.Seed, 30)
	if err != nil {
		return err
	}
	est := perfmodel.EstimateScheduled(m, nw, stats, 64)
	base := perfmodel.EstimateBaseline(m, nw, stats, 64)
	t := newTable(w)
	t.row("quantity", "modeled", "paper")
	t.row("total time [s]", fmt.Sprintf("%.1f", est.TotalSec), "99 (90.9 sim + 8.1 entropy)")
	t.row("speedup vs [5]", fmt.Sprintf("%.1fx", base.TotalSec/est.TotalSec), ">4x on identical hardware")
	t.flush()

	// Real validation of the distributed entropy reduction.
	n := 16
	if cfg.Quick {
		n = 12
	}
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: 25, Seed: cfg.Seed, SkipInitialH: true})
	plan, err := schedule.Build(circ, paperOptions(n-3))
	if err != nil {
		return err
	}
	res, err := dist.Run(plan, dist.Options{Ranks: 8, Init: dist.InitUniform})
	if err != nil {
		return err
	}
	single := statevec.NewUniform(n)
	for i := range circ.Gates {
		g := &circ.Gates[i]
		single.Apply(g.Matrix(), g.Qubits...)
	}
	fmt.Fprintf(w, "\nreal %d-qubit validation: distributed entropy %.6f vs single-node %.6f (|Δ| = %.2g)\n",
		n, res.Entropy, single.Entropy(), math.Abs(res.Entropy-single.Entropy()))
	if math.Abs(res.Entropy-single.Entropy()) > 1e-9 {
		return fmt.Errorf("harness: distributed entropy deviates from single-node value")
	}
	// Porter–Thomas expectation for chaotic circuits: S ≈ n·ln2 − (1 − γ).
	pt := float64(n)*math.Ln2 - (1 - 0.5772156649)
	fmt.Fprintf(w, "Porter-Thomas expectation for a chaotic %d-qubit circuit: %.4f nats\n", n, pt)
	return nil
}
