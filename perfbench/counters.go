package main

import "qithread"

// schedCounts sums the scheduler counters of one or more runtime executions,
// read from the public snapshots after each Run.
type schedCounts struct {
	runs       int64
	wallNS     int64
	turns      int64 // all domains
	handoffs   int64 // default domain: SchedulerStat has no handoff counter
	leaseExt   int64 // all domains
	maxWaiting int
	decisions  [6]int64 // per policyLayers, default domain's stack
}

// countSched snapshots a finished runtime that ran for wallNS.
func countSched(rt *qithread.Runtime, wallNS int64) schedCounts {
	c := schedCounts{runs: 1, wallNS: wallNS, handoffs: rt.Stats().Handoffs}
	for _, st := range rt.SchedulerStats() {
		c.turns += st.Turns
		c.leaseExt += st.LeaseExtends
		c.maxWaiting = max(c.maxWaiting, st.MaxWaiting)
	}
	for _, m := range rt.PolicyMetrics() {
		for i, l := range policyLayers {
			if l == m.Policy {
				c.decisions[i] += m.Total()
			}
		}
	}
	return c
}

func (c *schedCounts) add(o schedCounts) {
	c.runs += o.runs
	c.wallNS += o.wallNS
	c.turns += o.turns
	c.handoffs += o.handoffs
	c.leaseExt += o.leaseExt
	c.maxWaiting = max(c.maxWaiting, o.maxWaiting)
	for i := range c.decisions {
		c.decisions[i] += o.decisions[i]
	}
}

// fill sets the core and policy per-layer metrics.
func (c schedCounts) fill(layer map[string]float64) {
	turns, runs := float64(max(c.turns, 1)), float64(max(c.runs, 1))
	layer["core.ns_per_turn"] = float64(c.wallNS) / turns
	layer["core.handoff_frac"] = float64(c.handoffs) / turns
	layer["core.lease_extend_frac"] = float64(c.leaseExt) / turns
	layer["core.max_waiting"] = float64(c.maxWaiting)
	layer["core.turns_per_run"] = float64(c.turns) / runs
	for i, l := range policyLayers {
		layer["policy."+l+".decisions_per_run"] = float64(c.decisions[i]) / runs
	}
}
