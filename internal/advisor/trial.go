package advisor

import (
	"qithread"
	"qithread/internal/policy"
	"qithread/internal/workload"
)

// TrialResult reports the empirical validation of a recommendation set —
// Pegasus's trial step: recommendations are only advice until a measurement
// confirms them.
type TrialResult struct {
	// Recommended is the policy set under trial.
	Recommended qithread.Policy
	// Stack is the ready-to-run policy stack compiled from the
	// recommendation (round-robin base plus the recommended layers in
	// canonical order). The tuned run executed through this stack.
	Stack *policy.Stack
	// Metrics is the per-policy decision counter snapshot of the tuned run,
	// attributing the trial's speedup to the policies that earned it.
	Metrics []policy.Metrics
	// VanillaMakespan and TunedMakespan are virtual makespans without and
	// with the recommended policies.
	VanillaMakespan int64
	TunedMakespan   int64
}

// Improvement returns the speedup factor of the tuned configuration
// (>1 means the recommendations helped).
func (t TrialResult) Improvement() float64 {
	if t.TunedMakespan == 0 {
		return 0
	}
	return float64(t.VanillaMakespan) / float64(t.TunedMakespan)
}

// Helped reports whether the tuned configuration beat vanilla round robin by
// more than 10%, the paper's significance threshold.
func (t TrialResult) Helped() bool {
	return float64(t.TunedMakespan) < 0.9*float64(t.VanillaMakespan)
}

// AutoTune runs the full advisor pipeline on a program: record a vanilla
// round-robin schedule, analyze it, compile the recommendations into a policy
// stack, and trial that stack. The returned TrialResult carries the stack and
// its per-policy decision metrics, closing the diagnose → configure → rerun
// loop.
func AutoTune(app workload.App) (recs []Recommendation, result TrialResult) {
	rec := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Record: true})
	app(rec)
	recs = Analyze(rec.Trace())
	result.Recommended = Policies(recs)
	result.VanillaMakespan = rec.VirtualMakespan()

	result.Stack = policy.CanonicalStack(result.Recommended)
	tuned := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Stack: result.Stack})
	app(tuned)
	result.TunedMakespan = tuned.VirtualMakespan()
	result.Metrics = tuned.PolicyMetrics()
	return recs, result
}
