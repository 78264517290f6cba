package dist

import (
	"testing"

	"qusim/internal/schedule"
)

func TestProfileBreakdown(t *testing.T) {
	c := supremacy(12, 16, 95, false)
	plan, err := schedule.Build(c, schedule.DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(plan, Options{Ranks: 8, Init: InitUniform, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile) != 4 {
		t.Fatalf("profile has %d entries, want 4", len(res.Profile))
	}
	byKind := map[string]ProfileEntry{}
	for _, e := range res.Profile {
		byKind[e.Kind] = e
	}
	// Diagonal clusters execute as diag ops, next to the specialized
	// global diagonals; the profile and the plan stats must agree.
	st := plan.Stats
	if got, want := byKind["cluster"].Ops, st.Clusters-st.DiagonalClusters; got != want {
		t.Errorf("profiled cluster ops %d, plan has %d dense clusters", got, want)
	}
	if got, want := byKind["diag"].Ops, st.DiagonalClusters+st.DiagonalOps; got != want {
		t.Errorf("profiled diag ops %d, plan has %d diagonal clusters + %d global diagonals",
			got, st.DiagonalClusters, st.DiagonalOps)
	}
	if byKind["swap"].Ops != plan.Stats.Swaps {
		t.Errorf("profiled swap ops %d, plan says %d", byKind["swap"].Ops, plan.Stats.Swaps)
	}
	if byKind["cluster"].Duration <= 0 {
		t.Error("cluster time not recorded")
	}
	// Without Profile, no breakdown is produced.
	res2, err := Run(plan, Options{Ranks: 8, Init: InitUniform})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Profile != nil {
		t.Error("profile produced without Options.Profile")
	}
}
