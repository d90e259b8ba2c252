package harness

import (
	"fmt"
	"io"
	"time"

	"qithread"
	"qithread/internal/stats"
	"qithread/internal/workload"
)

// This file runs the scheduler-domain scaling experiment: the same sharded
// workload at 1, 2, 4, 8 domains under the QiThread configuration. A single
// global turn serializes every synchronization operation of the process
// through one virtual-time chain (vLastOp); per-domain turns serialize only
// within a shard, so the virtual makespan should improve monotonically with
// the domain count while the output checksum and the per-domain determinism
// fingerprints stay fixed. Wall-clock medians are reported alongside for
// reference, as everywhere else in the harness.

// DomainPoint is one (workload, domain count, batch size) measurement.
type DomainPoint struct {
	Workload string
	Domains  int
	// Batch is the boundary batch size: 0 is the aggregate shape (one
	// message per shard), B>=1 streams per-item results through a
	// capacity-B pipe (see workload.DomainServerConfig.Batch).
	Batch int
	// Makespan is the median virtual makespan (1 work unit = 1ns).
	Makespan time.Duration
	// Wall is the median host wall-clock time.
	Wall time.Duration
	// Output is the workload checksum, identical across domain counts and
	// batch sizes.
	Output uint64
}

// DomainWorkload names one sharded engine at a given domain count and
// boundary batch size.
type DomainWorkload struct {
	Name  string
	Build func(domains, batch int, p workload.Params) workload.App
}

// DomainWorkloads returns the sharded engines of the scaling experiment:
// the request server and the static map-reduce, the two structures the
// partitioned design targets (independent request streams, independent data
// partitions).
func DomainWorkloads() []DomainWorkload {
	return []DomainWorkload{
		{
			Name: "server",
			Build: func(nd, batch int, p workload.Params) workload.App {
				return workload.DomainServer(workload.DomainServerConfig{
					Domains: nd, Workers: 3, Requests: 48,
					AcceptWork: 60, ParseWork: 420, StateWork: 90,
					Batch: batch,
				}, p)
			},
		},
		{
			Name: "mapreduce",
			Build: func(nd, batch int, p workload.Params) workload.App {
				return workload.DomainMapReduce(workload.DomainMapReduceConfig{
					Domains: nd, Workers: 3, MapTasks: 96, ReduceTasks: 48,
					MapWork: 380, ReduceWork: 260,
					Batch: batch,
				}, p)
			},
		},
	}
}

// MeasureDomains measures one sharded workload at one domain count and batch
// size under one mode, returning median virtual makespan and wall time over
// the runner's repeats.
func (r *Runner) MeasureDomains(w DomainWorkload, domains, batch int, mode Mode) DomainPoint {
	app := w.Build(domains, batch, r.Params)
	if r.Warmup {
		app(qithread.New(mode.Cfg))
	}
	vts := make([]time.Duration, 0, r.repeats())
	wts := make([]time.Duration, 0, r.repeats())
	var out uint64
	for i := 0; i < r.repeats(); i++ {
		rt := qithread.New(mode.Cfg)
		start := time.Now()
		out = app(rt)
		wts = append(wts, time.Since(start))
		vts = append(vts, time.Duration(rt.VirtualMakespan()))
	}
	return DomainPoint{
		Workload: w.Name,
		Domains:  domains,
		Batch:    batch,
		Makespan: stats.Median(vts),
		Wall:     stats.Median(wts),
		Output:   out,
	}
}

// DomainScaling runs every sharded workload at every domain count under the
// given mode, in the aggregate result shape (batch 0), and returns the
// points in (workload, count) order.
func (r *Runner) DomainScaling(counts []int, mode Mode) []DomainPoint {
	var points []DomainPoint
	for _, w := range DomainWorkloads() {
		for _, nd := range counts {
			pt := r.MeasureDomains(w, nd, 0, mode)
			points = append(points, pt)
			r.logf("%-12s domains=%d  makespan=%10v  wall=%10v\n", w.Name, nd, pt.Makespan, pt.Wall)
		}
	}
	return points
}

// DomainBatchSweep runs every sharded workload in the streaming result shape
// at a fixed domain count across boundary batch sizes. Streaming ships every
// per-item checksum to the coordinator, so the boundary cost dominates at
// batch 1 (one turn-holding slot, lock acquisition and wake-up per message)
// and amortizes as the batch grows; the output checksum stays identical
// across the sweep.
func (r *Runner) DomainBatchSweep(domains int, batches []int, mode Mode) []DomainPoint {
	var points []DomainPoint
	for _, w := range DomainWorkloads() {
		for _, b := range batches {
			pt := r.MeasureDomains(w, domains, b, mode)
			points = append(points, pt)
			r.logf("%-12s domains=%d batch=%-3d  makespan=%10v  wall=%10v\n", w.Name, domains, b, pt.Makespan, pt.Wall)
		}
	}
	return points
}

// WriteDomainCSV writes the scaling points as CSV, with makespans normalized
// to each workload's first point (the 1-domain run for a scaling sweep, the
// batch-1 run for a batch sweep).
func WriteDomainCSV(w io.Writer, points []DomainPoint) {
	fmt.Fprintln(w, "workload,domains,batch,makespan_ms,wall_ms,speedup")
	base := make(map[string]time.Duration)
	for _, pt := range points {
		if _, seen := base[pt.Workload]; !seen {
			base[pt.Workload] = pt.Makespan
		}
	}
	for _, pt := range points {
		speedup := 0.0
		if b := base[pt.Workload]; b > 0 && pt.Makespan > 0 {
			speedup = float64(b) / float64(pt.Makespan)
		}
		fmt.Fprintf(w, "%s,%d,%d,%.3f,%.3f,%.3f\n", pt.Workload, pt.Domains, pt.Batch, ms(pt.Makespan), ms(pt.Wall), speedup)
	}
}
