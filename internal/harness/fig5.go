package harness

import (
	"fmt"
	"io"

	"qusim/internal/circuit"
	"qusim/internal/schedule"
)

// Fig. 5: number of global-to-local swaps (top panels) and of per-gate
// communication steps under the scheme of [5] (bottom panels), as a
// function of circuit depth (5a, 42-qubit circuits) and of qubit count
// (5b, depth-25 circuits), for 29–32 local qubits. Both quantities are
// hardware-independent scheduler outputs and are reproduced exactly.

func init() {
	register(Experiment{ID: "fig5a", Title: "Fig. 5a — communication vs circuit depth (42 qubits)", Run: fig5a})
	register(Experiment{ID: "fig5b", Title: "Fig. 5b — communication vs qubit count (depth 25)", Run: fig5b})
}

func swapCounts(n, depth int, seed int64, locals []int, worstCase bool) (map[int]int, map[int]int, error) {
	r, c := circuit.GridForQubits(n)
	circ := circuit.Supremacy(circuit.SupremacyOptions{
		Rows: r, Cols: c, Depth: depth, Seed: seed, SkipInitialH: true,
	})
	swaps := map[int]int{}
	globals := map[int]int{}
	for _, l := range locals {
		if l > n {
			continue
		}
		opts := paperOptions(l)
		opts.Mapping = schedule.MapIdentity // mapping does not change counts
		opts.SpecializeDiagonal1Q = !worstCase
		plan, err := schedule.Build(circ, opts)
		if err != nil {
			return nil, nil, err
		}
		swaps[l] = plan.Stats.Swaps
		if worstCase {
			globals[l] = plan.Stats.BaselineGlobalGatesDense
		} else {
			globals[l] = plan.Stats.BaselineGlobalGates
		}
	}
	return swaps, globals, nil
}

func fig5a(w io.Writer, cfg Config) error {
	header(w, "Fig. 5a: 42-qubit supremacy circuits, depth 10-50")
	locals := []int{29, 30, 31, 32}
	depths := []int{10, 15, 20, 25, 30, 35, 40, 45, 50}
	if cfg.Quick {
		depths = []int{10, 25, 40}
	}
	for _, worst := range []bool{true, false} {
		mode := "worst case (dense 1q gates, dashed lines)"
		if !worst {
			mode = "median hard (T specialization, solid lines)"
		}
		fmt.Fprintf(w, "\n-- %s --\n", mode)
		t := newTable(w)
		hdr := []any{"depth"}
		for _, l := range locals {
			hdr = append(hdr, fmt.Sprintf("swaps(l=%d)", l))
		}
		hdr = append(hdr, "global gates [5] (l=30)")
		t.row(hdr...)
		for _, d := range depths {
			swaps, globals, err := swapCounts(42, d, cfg.Seed, locals, worst)
			if err != nil {
				return err
			}
			row := []any{d}
			for _, l := range locals {
				row = append(row, swaps[l])
			}
			row = append(row, globals[30])
			t.row(row...)
		}
		t.flush()
	}
	note(w, "paper: swaps stay in 1-3 across depth 10-50 and are mostly independent of l; per-gate scheme grows to ~200 steps at depth 50")
	return nil
}

func fig5b(w io.Writer, cfg Config) error {
	header(w, "Fig. 5b: depth-25 supremacy circuits, 30-49 qubits")
	locals := []int{29, 30, 31, 32}
	qubits := []int{30, 36, 42, 45, 49}
	paperSwaps := map[int]string{30: "0", 36: "1", 42: "2", 45: "2", 49: "2"}
	for _, worst := range []bool{true, false} {
		mode := "worst case (dense 1q gates)"
		if !worst {
			mode = "median hard (T specialization)"
		}
		fmt.Fprintf(w, "\n-- %s --\n", mode)
		t := newTable(w)
		hdr := []any{"qubits"}
		for _, l := range locals {
			hdr = append(hdr, fmt.Sprintf("swaps(l=%d)", l))
		}
		hdr = append(hdr, "global gates [5] (l=30)", "paper swaps")
		t.row(hdr...)
		for _, n := range qubits {
			swaps, globals, err := swapCounts(n, 25, cfg.Seed, locals, worst)
			if err != nil {
				return err
			}
			row := []any{n}
			for _, l := range locals {
				if l > n {
					row = append(row, "-")
				} else {
					row = append(row, swaps[l])
				}
			}
			g := "-"
			if 30 <= n {
				g = fmt.Sprint(globals[min(30, n)])
			}
			row = append(row, g, paperSwaps[n])
			t.row(row...)
		}
		t.flush()
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
