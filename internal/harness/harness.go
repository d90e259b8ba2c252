// Package harness runs the paper's experiments: it measures catalog programs
// under the scheduling configurations of Figure 8, computes normalized
// overheads, and reproduces the per-policy effectiveness study (Section 5.2),
// the scalability study (Section 5.3), and the schedule-stability comparison
// against logical-clock scheduling (Section 2).
package harness

import (
	"fmt"
	"io"
	"time"

	"qithread"
	"qithread/internal/policy"
	"qithread/internal/programs"
	"qithread/internal/stats"
	"qithread/internal/workload"
)

// Mode is a named runtime configuration of the evaluation.
type Mode struct {
	// Name matches the artifact's row labels (non-det, no-hint, hinted,
	// no-pcs-hint, all-policies, ...).
	Name string
	Cfg  qithread.Config
}

// Standard evaluation modes. "non-det" is the ideal-parallel baseline
// (deterministic virtual-time simulation of the paper's nondeterministic
// pthreads runs), "no-pcs-hint" is the paper's "Parrot w/o PCS" (round robin
// + soft-barrier hints), "hinted" is "Parrot w/ PCS", "all-policies" is the
// QiThread default, "logical-clock" is the Kendo/CoreDet baseline. The names
// match the artifact's results.csv rows.
func Nondet() Mode { return Mode{"non-det", qithread.Config{Mode: qithread.VirtualParallel}} }
func VanillaRR() Mode {
	return Mode{"no-hint", qithread.Config{Mode: qithread.RoundRobin}}
}
func ParrotSoft() Mode {
	return Mode{"no-pcs-hint", qithread.Config{Mode: qithread.RoundRobin, SoftBarriers: true}}
}
func ParrotPCS() Mode {
	return Mode{"hinted", qithread.Config{Mode: qithread.RoundRobin, SoftBarriers: true, PCS: true}}
}
func QiThread() Mode {
	return Mode{"all-policies", qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}}
}
func QiThreadWith(p qithread.Policy) Mode {
	return Mode{"policies:" + p.String(), qithread.Config{Mode: qithread.RoundRobin, Policies: p}}
}
func Kendo() Mode {
	return Mode{"logical-clock", qithread.Config{Mode: qithread.LogicalClock}}
}

// QiThreadNoLease is the QiThread configuration with the scheduler's turn
// lease disabled, used to isolate the lease's contribution in mechanism
// benchmarks. Trace-neutral: schedules are identical to QiThread's.
func QiThreadNoLease() Mode {
	return Mode{"all-policies-nolease", qithread.Config{
		Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, NoTurnLease: true,
	}}
}

// StackMode wraps an explicitly composed policy stack as an evaluation mode,
// for configurations the bitmask cannot express (custom layer subsets or
// orders). The stack is reused across the mode's repeated runs; its decision
// counters therefore accumulate over all repeats.
func StackMode(name string, stk *policy.Stack) Mode {
	return Mode{name, qithread.Config{Mode: qithread.RoundRobin, Stack: stk}}
}

// Runner measures programs.
type Runner struct {
	// Params sizes every execution (scale, input seed, thread override).
	Params workload.Params
	// Repeats is the number of timed runs per (program, mode); the median
	// is reported. Zero means 3.
	Repeats int
	// Warmup runs one untimed execution before timing when true.
	Warmup bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (r *Runner) repeats() int {
	if r.Repeats <= 0 {
		return 3
	}
	return r.Repeats
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format, args...)
	}
}

// Measure runs one program under one mode and returns the median virtual
// makespan expressed as a duration (1 work unit = 1ns). Virtual makespans are
// the critical-path model of parallel execution time (see the virtual-time
// notes in internal/core), so results reproduce the paper's parallelism
// effects on any host, including single-core machines. Deterministic modes
// yield the same makespan every run; the nondeterministic baseline varies
// slightly with real interleaving, which the median smooths.
func (r *Runner) Measure(spec programs.Spec, mode Mode) time.Duration {
	app := spec.Build(r.Params)
	if r.Warmup {
		rt := qithread.New(mode.Cfg)
		app(rt)
	}
	times := make([]time.Duration, 0, r.repeats())
	for i := 0; i < r.repeats(); i++ {
		rt := qithread.New(mode.Cfg)
		app(rt)
		times = append(times, time.Duration(rt.VirtualMakespan()))
	}
	return stats.Median(times)
}

// MeasureWall runs one program under one mode and returns the median host
// wall-clock time. On a machine with as many idle cores as worker threads
// this tracks Measure; the harness reports it alongside virtual makespans
// for reference.
func (r *Runner) MeasureWall(spec programs.Spec, mode Mode) time.Duration {
	app := spec.Build(r.Params)
	times := make([]time.Duration, 0, r.repeats())
	for i := 0; i < r.repeats(); i++ {
		rt := qithread.New(mode.Cfg)
		start := time.Now()
		app(rt)
		times = append(times, time.Since(start))
	}
	return stats.Median(times)
}

// Row is one program's measurements across modes, normalized to the
// nondeterministic baseline — one cluster of bars in Figure 8.
type Row struct {
	Program string
	Suite   string
	Hints   workload.Hints
	// Base is the nondeterministic execution time.
	Base time.Duration
	// Times maps mode name to median execution time.
	Times map[string]time.Duration
	// Norm maps mode name to time normalized to Base (the bar heights).
	Norm map[string]float64
}

// MeasureRow measures spec under the nondeterministic baseline plus the given
// modes.
func (r *Runner) MeasureRow(spec programs.Spec, modes []Mode) Row {
	row := Row{
		Program: spec.Name,
		Suite:   spec.Suite,
		Hints:   spec.Hints,
		Times:   make(map[string]time.Duration),
		Norm:    make(map[string]float64),
	}
	row.Base = r.Measure(spec, Nondet())
	row.Times[Nondet().Name] = row.Base
	row.Norm[Nondet().Name] = 1.0
	for _, m := range modes {
		t := r.Measure(spec, m)
		row.Times[m.Name] = t
		row.Norm[m.Name] = stats.Normalized(t, row.Base)
		r.logf("%-28s %-22s %10v  %.2fx\n", spec.Name, m.Name, t, row.Norm[m.Name])
	}
	return row
}

// WriteCSVHeader writes the results.csv header for the given modes.
func WriteCSVHeader(w io.Writer, modes []Mode) {
	fmt.Fprint(w, "program,suite")
	fmt.Fprintf(w, ",%s_ms", Nondet().Name)
	for _, m := range modes {
		fmt.Fprintf(w, ",%s_ms,%s_norm", m.Name, m.Name)
	}
	fmt.Fprintln(w)
}

// WriteCSVRow writes one row of results.csv.
func WriteCSVRow(w io.Writer, row Row, modes []Mode) {
	fmt.Fprintf(w, "%s,%s,%.3f", row.Program, row.Suite, ms(row.Base))
	for _, m := range modes {
		fmt.Fprintf(w, ",%.3f,%.4f", ms(row.Times[m.Name]), row.Norm[m.Name])
	}
	fmt.Fprintln(w)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
