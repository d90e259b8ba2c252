package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"qithread"
	"qithread/internal/explore"
)

const (
	// exploreProgram is the control-plane app with its seeded
	// missing-recheck race, a bug only some interleavings expose.
	exploreProgram = "controlplane-race"
	// Busy searches use nproc workers, light searches one worker and half
	// the budget. A search's live heap grows with its budget, and garbage
	// collection sets the executions' tail: at the explorer's default
	// budget of 2000 a search peaked at ~0.8 GB and the p99s spread by up to
	// 0.3 from run to run.
	exploreBudgetBusy  = 500
	exploreBudgetLight = 250
	exploreBudgetSetup = 100
	// reproReplays is how many times each search's first minimized repro
	// must replay as an assertion failure.
	reproReplays = 50
)

// execRec is one execution of the explored program, recorded around its run
// function.
type execRec struct {
	wallNS    int64
	vmakespan int64
	sched     schedCounts
}

// execLog collects the executions of concurrent exploration workers.
type execLog struct {
	mu   sync.Mutex
	recs []execRec
}

func (l *execLog) add(e execRec) {
	l.mu.Lock()
	l.recs = append(l.recs, e)
	l.mu.Unlock()
}

// since returns the records added after the first n.
func (l *execLog) since(n int) []execRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]execRec(nil), l.recs[n:]...)
}

func (l *execLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// recorded wraps p so every execution — explored, minimization probe or
// repro replay — is timed; traced runs also keep its scheduler counters.
func recorded(p *explore.Program, log *execLog, traced bool) *explore.Program {
	return &explore.Program{
		Name: p.Name, Base: p.Base, Check: p.Check, Variants: p.Variants,
		Run: func(rt *qithread.Runtime) uint64 {
			t0 := now()
			out := p.Run(rt)
			wall := now() - t0
			e := execRec{wallNS: wall, vmakespan: rt.VirtualMakespan()}
			if traced {
				e.sched = countSched(rt, wall)
			}
			log.add(e)
			return out
		},
	}
}

// searchResult is one DPOR search and its checks.
type searchResult struct {
	execs                     []execRec // the search's own executions
	workers                   int
	runs, distinct, failures  int
	wallNS                    int64
	workerBusyNS              int64
	steal, replaySteal        int64 // hypervisor steal during the search and the replays
	replays                   int
	replayNS                  int64
	runForcedMS, minimizeMS   samples
	missedRace, badRepro      bool
	firstRepro, reproOutcomes string
}

// search runs one DPOR search in a fresh directory, then checks that it found
// the seeded race and that its first minimized repro replays as an assertion
// failure every time.
func search(o options, p *explore.Program, log *execLog, workers, budget int) (searchResult, error) {
	res := searchResult{workers: workers}
	dir, err := os.MkdirTemp(o.tmp, "explore-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	s, err := explore.NewSession(p, dir, explore.DefaultWatchdog)
	if err != nil {
		return res, err
	}
	s.Workers = workers
	n0, steal0 := log.len(), steal()
	t0 := now()
	if err := s.ExploreDPOR(budget, 0); err != nil {
		return res, fmt.Errorf("explore: %w", err)
	}
	t1 := now()
	res.steal = steal() - steal0
	res.execs = log.since(n0)
	res.wallNS = t1 - t0
	res.runs, res.distinct, res.failures = s.Runs(), s.Distinct(), s.Failures()
	for _, ws := range s.WorkerStats() {
		res.workerBusyNS += int64(ws.Elapsed)
	}
	repros := s.Repros()
	if res.failures == 0 || len(repros) == 0 {
		res.missedRace = true
		return res, nil
	}
	res.firstRepro = repros[0]
	events, choices, err := explore.LoadRepro(repros[0])
	if err != nil {
		return res, fmt.Errorf("load repro: %w", err)
	}
	r0, steal0 := now(), steal()
	for i := 0; i < reproReplays; i++ {
		out := explore.ReplayRepro(p, events, choices, explore.DefaultWatchdog)
		res.replays++
		if out.Outcome != explore.OutcomeAssertFail {
			res.badRepro = true
			res.reproOutcomes += " " + out.Outcome.String()
		}
	}
	res.replayNS = now() - r0
	res.replaySteal = steal() - steal0

	if o.traced() {
		// The search's own runs happen inside ExploreDPOR; these calls time
		// the same two entry points from outside: the baseline run, the
		// repro's forced run, and its minimization.
		var child []span
		a := now()
		explore.RunForced(p, nil, explore.DefaultWatchdog)
		b := now()
		failing := explore.RunForced(p, choices, explore.DefaultWatchdog)
		c := now()
		child = append(child, span{Name: "RunForced", Start: a, End: b}, span{Name: "RunForced", Start: b, End: c})
		res.runForcedMS = samples{float64(b-a) / 1e6, float64(c-b) / 1e6}
		if failing.Outcome.Failure() {
			explore.Minimize(p, failing, explore.DefaultWatchdog)
			d := now()
			child = append(child, span{Name: "Minimize", Start: c, End: d})
			res.minimizeMS = samples{float64(d-c) / 1e6}
		}
		parent := o.spans.add(0, -1, fmt.Sprintf("ExploreDPOR(workers=%d)", workers), t0, t1)
		for _, sp := range child {
			o.spans.add(parent, -1, sp.Name, sp.Start, sp.End)
		}
	}
	return res, nil
}

// checkSearches counts the failed searches: a search fails when it missed
// the seeded race, or when its first minimized repro did not replay as an
// assertion failure every time.
func checkSearches(r *report, searches []searchResult) {
	for _, s := range searches {
		r.attempted++
		switch {
		case s.missedRace:
			r.fail(1, "search (workers=%d) missed the seeded race in %d runs", s.workers, s.runs)
		case s.badRepro:
			r.fail(1, "repro %s did not replay as assert-fail:%s", s.firstRepro, s.reproOutcomes)
		}
	}
}

// runExplore runs back-to-back DPOR searches of the control-plane race:
// serial searches in the light phase, nproc-worker searches in the busy one.
func runExplore(o options) (*report, error) {
	r := newReport()
	base := explore.Lookup(exploreProgram)
	if base == nil {
		return nil, fmt.Errorf("explore: program %q is not registered", exploreProgram)
	}
	log := &execLog{}
	p := recorded(base, log, o.traced())

	// Set-up opens a session in a fresh directory and warms up with a small
	// search; the warm-up searches are checked like the measured ones. A
	// warm-up search's time varies by a quarter from run to run, so set-up
	// is timed nine times.
	var warmups []searchResult
	setup, err := setupTimes(9, func() error {
		res, err := search(options{seed: o.seed, nproc: o.nproc, tmp: o.tmp}, p, log, o.nproc, exploreBudgetSetup)
		warmups = append(warmups, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = setup
	checkSearches(r, warmups)

	// Light and busy searches alternate, so a slow spell on the host hits
	// both, and the rates are medians over the quiet searches.
	var light, busy []searchResult
	for end := now() + int64(o.seconds*0.8e9); len(busy) == 0 || now() < end; {
		for _, w := range []int{1, o.nproc} {
			runtime.GC()
			budget := exploreBudgetBusy
			if w == 1 {
				budget = exploreBudgetLight
			}
			res, err := search(o, p, log, w, budget)
			if err != nil {
				return nil, err
			}
			if w == 1 {
				light = append(light, res)
			} else {
				busy = append(busy, res)
			}
		}
	}

	all := append(append([]searchResult(nil), light...), busy...)
	checkSearches(r, all)
	var runForced, minimize samples
	for _, s := range all {
		runForced = append(runForced, s.runForcedMS...)
		minimize = append(minimize, s.minimizeMS...)
	}
	// Latency percentiles pool the executions of the quiet searches: in ten
	// runs this halved the spread of the light p99 against pooling every
	// search or taking the median of per-search percentiles.
	pool := func(searches []searchResult) samples {
		var s samples
		for _, sr := range searches {
			for _, e := range sr.execs {
				s = append(s, float64(e.wallNS)/1e6)
			}
		}
		return s
	}
	searchSteal := func(s searchResult) int64 { return s.steal }
	ls, bs := pool(quiet(light, searchSteal, quietShare)), pool(quiet(busy, searchSteal, quietShare))
	if !hasTail(len(ls), e2eTail) {
		return nil, fmt.Errorf("explore: %d light executions cannot support a p%s; raise --seconds", len(ls), percentLabel(e2eTail))
	}
	var runRates, execRates samples
	for _, s := range quiet(busy, func(s searchResult) int64 { return s.steal }, quietShare) {
		sec := float64(s.wallNS) / 1e9
		runRates = append(runRates, float64(s.runs)/sec)
		execRates = append(execRates, float64(len(s.execs))/sec)
	}
	var replays int
	var replayNS int64
	for _, s := range quiet(all, func(s searchResult) int64 { return s.replaySteal }, quietShare) {
		replays += s.replays
		replayNS += s.replayNS
	}
	var busyRecs []execRec
	var runs, distinct, failures int
	var busyWall, busyWorkerNS int64
	for _, s := range busy {
		busyRecs = append(busyRecs, s.execs...)
		runs += s.runs
		distinct += s.distinct
		failures += s.failures
		busyWall += s.wallNS
		busyWorkerNS += s.workerBusyNS
		r.printf("  busy search: %d runs, %d distinct, %d failures, %d executions in %s, steal %d ticks",
			s.runs, s.distinct, s.failures, len(s.execs), time.Duration(s.wallNS).Round(time.Millisecond), s.steal)
	}
	r.e2e["runs_per_s"] = runRates.median()
	r.e2e["capacity_rps"] = execRates.median()
	r.e2e["replay_rps"] = 0 // no search found a repro to replay
	if replayNS > 0 {
		r.e2e["replay_rps"] = float64(replays) / (float64(replayNS) / 1e9)
	}
	r.e2e["p50_ms.light"], r.e2e["p90_ms.light"] = ls.median(), ls.quantile(e2eTail)
	r.e2e["p50_ms.busy"], r.e2e["p90_ms.busy"] = bs.median(), bs.quantile(e2eTail)
	vm := make([]float64, len(busyRecs))
	for i, e := range busyRecs {
		vm[i] = float64(e.vmakespan)
	}
	r.e2e["vmakespan_geomean"] = geomean(vm)
	r.printf("explore: %s, %d light searches (1 worker, budget %d), %d busy searches (%d workers, budget %d)",
		exploreProgram, len(light), exploreBudgetLight, len(busy), o.nproc, exploreBudgetBusy)
	r.printf("  execution latency light: %s", ls.summary("ms"))
	r.printf("  execution latency busy:  %s", bs.summary("ms"))

	if o.traced() {
		var sc schedCounts
		for _, e := range busyRecs {
			sc.add(e.sched)
		}
		sc.fill(r.layer)
		r.layer["explore.run_ms.p50"] = runForced.median()
		r.layer["explore.minimize_ms.p50"] = minimize.median()
		r.layer["explore.distinct_frac"] = float64(distinct) / float64(runs)
		r.layer["explore.busy_frac"] = float64(busyWorkerNS) / (float64(busyWall) * float64(o.nproc))
		r.layer["explore.failures_per_run"] = float64(failures) / float64(runs)
	}
	return r, nil
}
