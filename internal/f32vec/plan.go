package f32vec

import (
	"fmt"

	"qusim/internal/kernels"
	"qusim/internal/schedule"
)

// RunPlan executes a scheduled plan on the single-precision state — the
// combination the paper's outlook points at: "the simulation of 46 qubits
// is feasible when using single-precision floating point numbers" with the
// same two-swap schedules. The whole vector is one block of
// schedule.ApplyBlock, which converts cluster and diagonal matrices to
// complex64 per op and permutes into the vector's lazily allocated
// scratch; a swap's exchange is a SwapBits sweep per swapped pair.
func (v *Vector) RunPlan(p *schedule.Plan) error {
	if p.N != v.N {
		return fmt.Errorf("f32vec: plan is for %d qubits, state has %d", p.N, v.N)
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if err := schedule.ApplyBlock(op, 0, &v.Amps, &v.scratch, v.Variant); err != nil {
			return err
		}
		if op.Kind == schedule.OpSwap {
			for j := range op.LocalPos {
				kernels.SwapBits(v.Amps, op.LocalPos[j], op.GlobalPos[j])
			}
		}
	}
	return nil
}
