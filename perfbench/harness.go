package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qusim/internal/par"
	"qusim/internal/telemetry"
)

// Circuits a measured run always completes, whatever -seconds says, so
// every median has at least this many samples.
const minCircuits = 3

// maxCircuits caps one run; it also sizes the QAOA parameter sweep.
const maxCircuits = 64

// env is what one circuit of a workload runs with.
type env struct {
	seed  int64
	nproc int
	tmp   string // the run's temporary directory, removed at exit

	// Traced runs only: the benchmark's own spans and the in-program
	// telemetry sink. Both are nil on a measured run.
	tr  *tracer
	tel *telemetry.Telemetry
}

// dir returns a fresh, empty directory under the run's temporary directory.
func (e *env) dir(name string) (string, error) {
	return os.MkdirTemp(e.tmp, name+"-")
}

// Set-up and the resume drill are short next to the solve, so measured
// runs repeat them per circuit and keep the median.
const setupReps, resumeReps = 5, 9

// reps is n on measured runs and 1 on traced runs, whose spans must
// describe a single pass.
func (e *env) reps(n int) int {
	if e.tr != nil {
		return 1
	}
	return n
}

// setUp runs the set-up f repeatedly and returns each run's time. Each
// repetition but the last is undone by release. Every repetition starts
// cold (coldStart), so each allocates its state as a fresh process does;
// the memory region starts just before the last, so discarded set-ups do
// not count against the high-water mark.
func (e *env) setUp(f func() error, release func()) ([]float64, error) {
	reps := e.reps(setupReps)
	times := make([]float64, reps)
	for r := range times {
		coldStart()
		if r == reps-1 {
			if err := resetPeak(); err != nil {
				return nil, err
			}
		}
		d, err := e.tr.call("setup", f)
		if err != nil {
			return nil, err
		}
		times[r] = d.Seconds()
		if r < reps-1 {
			release()
		}
	}
	return times, nil
}

// resume runs the resume drill repeatedly, each run followed by its
// untimed check, and returns each run's time. Every run starts cold, as
// a restarted process does.
func (e *env) resume(run func() error, check func()) ([]float64, error) {
	times := make([]float64, e.reps(resumeReps))
	for r := range times {
		coldStart()
		d, err := e.tr.call("resume", run)
		if err != nil {
			return nil, err
		}
		check()
		times[r] = d.Seconds()
	}
	return times, nil
}

// workload is one named set of inputs.
type workload struct {
	name   string
	qubits int
	// amp is the size of one amplitude in bytes.
	amp int64
	// workers is the par pool size the workload runs with; 0 means nproc.
	workers int
	// circuit runs input i end to end: set-up, solve, resume drill and
	// every check. An error fails both the solve and the drill.
	circuit func(e *env, i int) (*sample, error)
}

// sample is the measurement of one circuit.
type sample struct {
	setups, resumes []float64 // seconds, one per repetition
	solve           time.Duration
	peak            int64  // resident high-water mark of the measured part
	solveFail       checks // failed checks on the solve's answer
	resumeFail      checks // failed checks on the resume drill

	// Traced runs only: layer metrics the circuit observed.
	layers map[string]metric
}

// runCircuit runs input i with the workload's par pool size and removes
// whatever it left on disk.
func runCircuit(e *env, w *workload, i int) (*sample, error) {
	workers := w.workers
	if workers == 0 {
		workers = e.nproc
	}
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)
	s, err := w.circuit(e, i)
	entries, _ := os.ReadDir(e.tmp)
	for _, ent := range entries {
		os.RemoveAll(filepath.Join(e.tmp, ent.Name()))
	}
	return s, err
}

// measure is the untraced run: circuits back to back for the given time,
// reporting medians over circuits (set-up and resume: over all their
// repetitions).
func measure(e *env, w *workload, seconds float64) *report {
	var setups, solves, resumes, peaks []float64
	var t tally
	start := time.Now()
	for i := 0; i < maxCircuits && (i < minCircuits || time.Since(start).Seconds() < seconds); i++ {
		s, err := runCircuit(e, w, i)
		label := fmt.Sprintf("%s circuit %d", w.name, i)
		if err != nil {
			msg := []string{err.Error()}
			t.add(label, msg)
			t.add(label+" resume", msg)
			continue
		}
		t.add(label, s.solveFail)
		t.add(label+" resume", s.resumeFail)
		fmt.Fprintf(os.Stderr, "%s: setup %.4fs solve %.4fs resume %.4fs peak %d\n",
			label, median(s.setups), s.solve.Seconds(), median(s.resumes), s.peak)
		setups = append(setups, s.setups...)
		solves = append(solves, s.solve.Seconds())
		resumes = append(resumes, s.resumes...)
		peaks = append(peaks, float64(s.peak))
	}
	r := &report{}
	t.into(r)
	r.set("setup_s", "s", median(setups))
	r.set("solve_s", "s", median(solves))
	r.set("resume_s", "s", median(resumes))
	r.set("peak_mem_bytes", "bytes", median(peaks))
	r.set("success_rate", "ratio", 1-float64(t.failed)/float64(t.attempted))
	return r
}
