// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer breakdown (-trace 1). Every output is checked; a circuit or a
// resume drill that errors or fails a check counts as failed.
//
//	bash perfbench/run.sh --workload supremacy-f64 --seed 1 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads, the layers each one
// loads and bypasses, and the meaning of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"qusim/internal/par"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the benchmark's contract with its caller.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed every circuit, parameter set and sampler derives from")
		seconds = flag.Float64("seconds", 20, "measurement time of an untraced run")
		trace   = flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end measurement")
		out     = flag.String("out", ".bench_build", "directory for the span file and per-run temporary files")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep, err := run(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run pins the host configuration, creates the run's temporary directory
// and dispatches to the measured or the traced run.
func run(w *workload, seed int64, seconds float64, traced bool, out string) (*report, error) {
	host := probeHost()
	runtime.GOMAXPROCS(host.nproc)
	par.SetWorkers(host.nproc)

	tmpRoot := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Recorded on every run so figures from different hosts are never
	// compared silently.
	hostLine, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": seed, "traced": traced,
		"nproc": host.nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "llc_bytes": host.llcBytes,
	})
	fmt.Println("host", string(hostLine))

	e := &env{seed: seed, nproc: host.nproc, tmp: tmp}
	if !traced {
		return measure(e, w, seconds), nil
	}
	return tracedRun(e, w, host, out)
}

// tally accumulates attempts and failures, printing each failure to
// standard error so a failing run explains itself.
type tally struct {
	attempted, failed int
}

func (t *tally) add(label string, failures []string) {
	t.attempted++
	if len(failures) > 0 {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %s\n", label, strings.Join(failures, "; "))
	}
}

func (t *tally) into(r *report) {
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && t.attempted > 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
