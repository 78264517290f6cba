package harness

import (
	"fmt"
	"io"

	"qusim/internal/circuit"
	"qusim/internal/dist"
	"qusim/internal/perfmodel"
	"qusim/internal/schedule"
)

// Fig. 8: strong scaling of the full simulator — 36 qubits on {16,32,64}
// and 42 qubits on {1024,2048,4096} Cori II nodes. The paper-scale numbers
// come from the scheduler's real swap/cluster counts fed into the network
// model; a scaled-down instance additionally runs for real across simulated
// MPI ranks to validate the communication structure.

func init() {
	register(Experiment{ID: "fig8", Title: "Fig. 8 — multi-node strong scaling", Run: fig8})
}

func fig8(w io.Writer, cfg Config) error {
	header(w, "multi-node strong scaling (Cori II model)")
	m := perfmodel.CoriKNL()
	nw := perfmodel.CrayAries()

	t := newTable(w)
	t.row("qubits", "nodes", "modeled time [s]", "comm %", "speedup vs fewest nodes")
	for _, row := range []struct {
		n     int
		nodes []int
	}{
		{36, []int{16, 32, 64}},
		{42, []int{1024, 2048, 4096}},
	} {
		var t0 float64
		for _, nodes := range row.nodes {
			stats, err := planStats(row.n, 25, cfg.Seed, row.n-log2(nodes))
			if err != nil {
				return err
			}
			est := perfmodel.EstimateScheduled(m, nw, stats, nodes)
			if t0 == 0 {
				t0 = est.TotalSec
			}
			t.row(row.n, nodes, fmt.Sprintf("%.1f", est.TotalSec),
				fmt.Sprintf("%.0f%%", est.CommFraction*100),
				fmt.Sprintf("%.2fx", t0/est.TotalSec))
		}
	}
	t.flush()
	note(w, "paper: near-ideal scaling 16->32 nodes, tapering at 4096 as communication grows")

	// Real scaled-down runs across simulated ranks.
	n := 20
	if cfg.Quick {
		n = 14
	}
	fmt.Fprintf(w, "\nreal runs, %d-qubit circuit across simulated MPI ranks:\n", n)
	t = newTable(w)
	t.row("ranks", "wall [s]", "comm steps", "comm MB", "entropy")
	for _, ranks := range []int{2, 4, 8, 16} {
		res, err := runScaled(n, 20, cfg.Seed, ranks)
		if err != nil {
			return err
		}
		t.row(ranks, fmt.Sprintf("%.3f", res.Elapsed.Seconds()), res.CommSteps,
			fmt.Sprintf("%.1f", float64(res.CommBytes)/1e6), fmt.Sprintf("%.4f", res.Entropy))
	}
	t.flush()
	note(w, "in-process ranks share this host's cores, so wall time does not drop with rank count; the communication structure (steps, volume) is the validated quantity")
	return nil
}

func planStats(n, depth int, seed int64, l int) (schedule.Stats, error) {
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: seed, SkipInitialH: true})
	plan, err := schedule.Build(circ, paperOptions(l))
	if err != nil {
		return schedule.Stats{}, err
	}
	return plan.Stats, nil
}

func runScaled(n, depth int, seed int64, ranks int) (*dist.Result, error) {
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{Rows: r, Cols: c, Depth: depth, Seed: seed, SkipInitialH: true})
	plan, err := schedule.Build(circ, paperOptions(n-log2(ranks)))
	if err != nil {
		return nil, err
	}
	return dist.Run(plan, dist.Options{Ranks: ranks, Init: dist.InitUniform})
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}
