// Package harness regenerates every table and figure of the paper's
// evaluation section (Sec. 4). Each experiment prints the paper's reported
// values next to the reproduced ones — measured on this host where the
// quantity is hardware-independent or host-measurable, and modeled through
// internal/perfmodel where the paper's machines (Cori II, Edison) are
// required. cmd/experiments is the CLI front end; bench_test.go exposes one
// testing.B benchmark per experiment.
package harness

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"qusim/internal/schedule"
)

// Config tunes experiment sizes.
type Config struct {
	// Quick shrinks state sizes and sweep ranges so the full suite runs in
	// seconds (used by tests and CI).
	Quick bool
	// Seed for circuit generation.
	Seed int64
}

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, cfg Config) error
}

// paperOptions is DefaultOptions on the paper's machine: a flat pass-cost
// table, so clusters grow to KMax as in Sec. 3.6.1. The experiments that
// reproduce the paper's cluster, swap and time figures schedule with it.
func paperOptions(l int) schedule.Options {
	o := schedule.DefaultOptions(l)
	o.PassCost = nil
	return o
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// table is a small helper for aligned experiment output.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer) *table {
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n", title)
}

func note(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "   note: "+format+"\n", args...)
}
