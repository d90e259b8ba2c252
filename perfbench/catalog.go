package main

import (
	"fmt"
	"runtime"
	"sync"

	"qithread"
	"qithread/internal/programs"
	"qithread/internal/workload"
)

// catalogScale sizes every catalog program: at 0.1 one pass over the 108
// programs takes ~170 ms and ~47k turns on a 2-CPU host.
const catalogScale = 0.1

// execTuple is what must repeat across executions of one program input
// under a deterministic runtime.
type execTuple struct {
	out       uint64
	ops       int64
	turns     int64
	leaseHash uint64
	vmakespan int64
}

// catalogExec is one measured program execution.
type catalogExec struct {
	prog   int
	tup    execTuple
	wallNS int64
	// sched is set in traced runs only: the counters would double the size
	// of every execution record, and the run keeps every record to its end.
	sched *schedCounts
	// diverged marks a replay-pass execution whose recorded schedule
	// fingerprint differs from the program's recording.
	diverged bool
}

// knownNondeterministic names the catalog programs whose schedules the
// runtime does not yet repeat (ROADMAP item 1): their ad-hoc synchronization
// gave 7-8 distinct schedules in 20 executions in one process. They stay in
// every pass and their outputs are checked like any other's, but their
// schedule divergence is reported as the known-defect share
// (core.known_diverged_frac, and a line in every run) instead of as failed
// executions: how many of them diverge varies from run to run, and a failure
// count that varies with the host cannot tell two runs of the same code
// apart from a regression. Any other program that diverges fails.
var knownNondeterministic = map[string]bool{"canneal": true, "x264": true}

// modalTuples returns each program's modal tuple: the most frequent one
// among its executions, the earliest seen winning a tie.
func modalTuples(execs []catalogExec, nprog int) []execTuple {
	counts := make([]map[execTuple]int, nprog)
	first := make([]map[execTuple]int, nprog)
	modal := make([]execTuple, nprog)
	best := make([]int, nprog)
	for i, e := range execs {
		if counts[e.prog] == nil {
			counts[e.prog], first[e.prog] = map[execTuple]int{}, map[execTuple]int{}
		}
		if _, ok := first[e.prog][e.tup]; !ok {
			first[e.prog][e.tup] = i
		}
		counts[e.prog][e.tup]++
	}
	for p := range counts {
		for t, c := range counts[p] {
			if c > best[p] || (c == best[p] && first[p][t] < first[p][modal[p]]) {
				modal[p], best[p] = t, c
			}
		}
	}
	return modal
}

// checkCatalog counts the failed executions: an execution fails when its
// output differs from the program's reference output (a wrong result), its
// tuple differs from the program's modal tuple, or, in a replay pass, its
// schedule fingerprint differs from the program's recording (determinism
// failures). The determinism failures of knownNondeterministic programs are
// not failures; checkCatalog counts them in known, of knownExecs executions
// of those programs. It returns the modal tuples.
func checkCatalog(r *report, names []string, execs []catalogExec, ref []uint64) (modal []execTuple, known, knownExecs int64) {
	modal = modalTuples(execs, len(names))
	diverged := make([]int64, len(names))
	unreplayed := make([]int64, len(names))
	for _, e := range execs {
		if knownNondeterministic[names[e.prog]] {
			knownExecs++
		}
		switch {
		case e.tup.out != ref[e.prog]:
			r.wrong(1, "%s output %x, reference %x", names[e.prog], e.tup.out, ref[e.prog])
		case e.tup != modal[e.prog]:
			diverged[e.prog]++
		case e.diverged:
			unreplayed[e.prog]++
		}
	}
	for p, name := range names {
		if knownNondeterministic[name] {
			known += diverged[p] + unreplayed[p]
			continue
		}
		if n := diverged[p]; n > 0 {
			r.fail(n, "%s: executions diverged from the modal (output, ops, turns, lease hash, makespan)", name)
		}
		if n := unreplayed[p]; n > 0 {
			r.fail(n, "%s: replays recorded a schedule fingerprint other than the recording's", name)
		}
	}
	return modal, known, knownExecs
}

// runCatalog runs every catalog program back to back in a closed loop under
// the QiThread default configuration: one client, then nproc clients, then
// nproc clients replaying with recording on.
func runCatalog(o options) (*report, error) {
	r := newReport()
	specs := programs.All()
	params := workload.Params{Scale: catalogScale, InputSeed: uint64(o.seed), InputSkew: o.seed}
	cfg := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies}
	recCfg := cfg
	recCfg.Record = true

	// Set-up builds every program, computes each one's reference output
	// under the nondeterministic runtime (a program's output is a pure
	// function of its input in every mode) and records each program's
	// schedule fingerprint, which also warms up.
	var apps []workload.App
	var ref []uint64
	var recording []string
	setup, err := setupTimes(3, func() error {
		apps = make([]workload.App, len(specs))
		ref = make([]uint64, len(specs))
		recording = make([]string, len(specs))
		for i, s := range specs {
			apps[i] = s.Build(params)
			ref[i] = apps[i](qithread.New(qithread.Config{}))
		}
		for i, app := range apps {
			rt := qithread.New(recCfg)
			app(rt)
			recording[i] = rt.Fingerprint().String()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = setup

	// Light, busy and replay passes alternate, so a slow spell on the host
	// hits all three, and the rates are medians over the quiet passes.
	var lightPasses, busyPasses, replayPasses []catalogPassResult
	for end := now() + int64(o.seconds*0.9e9); len(replayPasses) == 0 || now() < end; {
		runtime.GC()
		lightPasses = append(lightPasses, catalogPass(o, specs, apps, cfg, 1, nil))
		runtime.GC()
		busyPasses = append(busyPasses, catalogPass(o, specs, apps, cfg, o.nproc, nil))
		runtime.GC()
		replayPasses = append(replayPasses, catalogPass(o, specs, apps, recCfg, o.nproc, recording))
	}
	// The execution records are most of the run's heap. Grown by append,
	// they set the run's peak RSS: 24 MB with a spread of 0.16 over ten
	// runs, against 12.5 MB and 0.03 sized exactly and without counters.
	n := 0
	for i := range lightPasses {
		n += len(lightPasses[i].execs) + len(busyPasses[i].execs) + len(replayPasses[i].execs)
	}
	all := make([]catalogExec, 0, n)
	for i := range lightPasses {
		all = append(all, lightPasses[i].execs...)
		all = append(all, busyPasses[i].execs...)
		all = append(all, replayPasses[i].execs...)
	}
	r.attempted = int64(len(all))

	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	modal, known, knownExecs := checkCatalog(r, names, all, ref)
	var knownNames []string
	for _, n := range names {
		if knownNondeterministic[n] {
			knownNames = append(knownNames, n)
		}
	}
	r.printf("KNOWN DEFECT: %d of %d executions of %v diverged from their modal tuple or recording (not counted as failed)",
		known, knownExecs, knownNames)

	// Catalog keeps the quieter half of its passes: a quarter would leave
	// too few light executions for the p99 its text line reports.
	passSteal := func(p catalogPassResult) int64 { return p.steal }
	// stats returns the passes' execution latencies and, per pass, the
	// executions per second and those of them that reproduced their modal
	// tuple and, in a replay pass, their recording.
	stats := func(passes []catalogPassResult) (lat, rates, goodRates samples) {
		for _, p := range passes {
			good := 0
			for _, e := range p.execs {
				lat = append(lat, float64(e.wallNS)/1e6)
				if e.tup == modal[e.prog] && !e.diverged {
					good++
				}
			}
			sec := float64(p.ns) / 1e9
			rates = append(rates, float64(len(p.execs))/sec)
			goodRates = append(goodRates, float64(good)/sec)
		}
		return lat, rates, goodRates
	}
	ls, lightRates, _ := stats(quiet(lightPasses, passSteal, 0.5))
	bs, busyRates, _ := stats(quiet(busyPasses, passSteal, 0.5))
	_, _, replayRates := stats(quiet(replayPasses, passSteal, 0.5))
	if !hasTail(len(ls), e2eTail) {
		return nil, fmt.Errorf("catalog: %d light executions cannot support a p%s; raise --seconds", len(ls), percentLabel(e2eTail))
	}
	r.e2e["runs_per_s"] = lightRates.median()
	r.e2e["capacity_rps"] = busyRates.median()
	// A replay pass re-runs every input with recording on and checks the
	// schedule it records against the recording made in set-up: the
	// runtime's determinism promise, which needs no log to replay.
	r.e2e["replay_rps"] = replayRates.median()
	r.e2e["p50_ms.light"], r.e2e["p90_ms.light"] = ls.median(), ls.quantile(e2eTail)
	r.e2e["p50_ms.busy"], r.e2e["p90_ms.busy"] = bs.median(), bs.quantile(e2eTail)
	perProg := make([]samples, len(specs))
	for _, e := range all {
		perProg[e.prog] = append(perProg[e.prog], float64(e.tup.vmakespan))
	}
	var ms []float64
	for _, s := range perProg {
		ms = append(ms, s.median())
	}
	r.e2e["vmakespan_geomean"] = geomean(ms)
	r.printf("catalog: %d programs, scale %g; %d rounds of a light pass (1 client), a busy pass and a replay pass (%d clients each); %d, %d and %d quiet passes",
		len(specs), catalogScale, len(lightPasses), o.nproc, len(lightRates), len(busyRates), len(replayRates))
	r.printf("  execution latency light: %s", ls.summary("ms"))
	r.printf("  execution latency busy:  %s", bs.summary("ms"))

	if o.traced() {
		// Replay passes record their schedules; the scheduler counters come
		// from the plain light and busy passes.
		var sc schedCounts
		for _, p := range append(lightPasses, busyPasses...) {
			for _, e := range p.execs {
				sc.add(*e.sched)
			}
		}
		sc.fill(r.layer)
		r.layer["core.known_diverged_frac"] = float64(known) / float64(max(knownExecs, 1))
	}
	return r, nil
}

// catalogPassResult is one pass: its executions, elapsed nanoseconds and
// the hypervisor steal during it.
type catalogPassResult struct {
	execs     []catalogExec
	ns, steal int64
}

// catalogPass runs one pass over the catalog on each of the given number of
// client goroutines, each client starting at its own offset. A replay pass
// passes the recorded fingerprints (and a cfg with Record set) and checks
// each execution's fingerprint against its program's.
func catalogPass(o options, specs []programs.Spec, apps []workload.App, cfg qithread.Config, clients int, recording []string) catalogPassResult {
	steal0, start := steal(), now()
	out := make([][]catalogExec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < len(apps); k++ {
				i := (c*len(apps)/clients + k) % len(apps)
				rt := qithread.New(cfg)
				t0 := now()
				res := apps[i](rt)
				t1 := now()
				st := rt.Stats()
				e := catalogExec{
					prog: i,
					tup: execTuple{out: res, ops: st.Ops, turns: st.Turns, leaseHash: st.LeaseHash,
						vmakespan: rt.VirtualMakespan()},
					wallNS: t1 - t0,
				}
				if recording != nil {
					e.diverged = rt.Fingerprint().String() != recording[i]
				}
				if o.traced() {
					sc := countSched(rt, t1-t0)
					e.sched = &sc
					o.spans.add(0, -1, "exec:"+specs[i].Name, t0, t1)
				}
				out[c] = append(out[c], e)
			}
		}(c)
	}
	wg.Wait()
	p := catalogPassResult{ns: now() - start, steal: steal() - steal0}
	for _, s := range out {
		p.execs = append(p.execs, s...)
	}
	return p
}
