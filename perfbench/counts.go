package main

import "qusim/internal/schedule"

// ampBytes is the size of one double-precision amplitude.
const ampBytes = 16

// planCounts are the work counts a plan fixes before any state exists,
// derived from its ops alone the way qsched analyzes a schedule. The
// traced run asserts each against what the layer reports.
type planCounts struct {
	statePasses int   // ops, each one sweep over the local state
	swaps       int   // global-to-local swaps: one collective step each
	commBytes   int64 // payload bytes crossing rank boundaries, all swaps
	stages      int   // stages holding at least one op
	clusters    [6]int
	diagonals   int
}

// countPlan derives the counts from plan's ops.
func countPlan(plan *schedule.Plan) planCounts {
	var pc planCounts
	seen := map[int]bool{}
	local := int64(1) << plan.L
	ranks := int64(1) << (plan.N - plan.L)
	for i := range plan.Ops {
		op := &plan.Ops[i]
		pc.statePasses++
		seen[op.Stage] = true
		switch op.Kind {
		case schedule.OpCluster:
			pc.clusters[len(op.Positions)]++
		case schedule.OpDiagonal:
			pc.diagonals++
		case schedule.OpSwap:
			// Each rank keeps one of its 2^q sub-blocks and receives the
			// other 2^q − 1 from its group.
			q := int64(len(op.LocalPos))
			pc.swaps++
			pc.commBytes += ranks * ((1 << q) - 1) * (local >> q) * ampBytes
		}
	}
	pc.stages = len(seen)
	return pc
}

// stateBytes is the size of plan's full double-precision state.
func stateBytes(plan *schedule.Plan) int64 { return ampBytes << plan.N }

// commits is the number of snapshots a run checkpointing every stage
// boundary commits: every boundary but the end of the last stage.
func (pc planCounts) commits() int { return pc.stages - 1 }

// chunkTransfers is the number of chunk reads (and, equally, writes) of
// an out-of-core run: every stage streams each chunk in and out once.
func (pc planCounts) chunkTransfers(plan *schedule.Plan) int {
	return pc.stages << (plan.N - plan.L)
}

// kernelWork returns the bytes a plan's ops move and the floating-point
// operations they perform, computed from the op list at amplitude size
// amp bytes: every op reads and writes the whole state once; a k-qubit
// cluster does 2^k complex multiply-adds (8 flops each) per amplitude and
// a diagonal one complex multiply (6 flops).
func kernelWork(plan *schedule.Plan, amp int64) (bytes, flops int64) {
	dim := int64(1) << plan.N
	for i := range plan.Ops {
		op := &plan.Ops[i]
		bytes += 2 * dim * amp
		switch op.Kind {
		case schedule.OpCluster:
			flops += dim * 8 << len(op.Positions)
		case schedule.OpDiagonal:
			flops += dim * 6
		}
	}
	return bytes, flops
}
