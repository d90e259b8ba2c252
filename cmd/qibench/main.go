// Command qibench regenerates the paper's evaluation (Section 5): Figure 8
// normalized execution times over all 108 programs, the Section 5.1
// aggregates, the Section 5.2 per-policy effectiveness study, the Section 5.3
// scalability study, the schedule-stability comparison of Section 2, and the
// x264 policy-configuration case study.
//
// Usage:
//
//	qibench -experiment fig8 [-suite phoenix] [-scale 0.25] [-o results.csv]
//	qibench -experiment policies
//	qibench -experiment scalability
//	qibench -experiment stability
//	qibench -experiment x264
//	qibench -experiment counters [-o counters.csv]
//	qibench -experiment domains [-o domains.csv]
//	qibench -experiment ingress [-o ingress.csv]
//	qibench -experiment soak [-soak-events 200000]
//	qibench -experiment all
//
// All measurements are virtual makespans (critical-path model, see DESIGN.md)
// and therefore deterministic: the same invocation prints the same numbers.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"qithread"
	"qithread/internal/harness"
	"qithread/internal/ingress"
	"qithread/internal/logio"
	"qithread/internal/programs"
	"qithread/internal/stats"
	"qithread/internal/trace"
	"qithread/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "fig8", "fig8 | policies | scalability | stability | x264 | counters | domains | ingress | controlplane | soak | all")
		suite      = flag.String("suite", "", "restrict to one suite (splash2x npb parsec phoenix realworld imagemagick stl)")
		program    = flag.String("program", "", "restrict to one program (Figure 8 label)")
		scale      = flag.Float64("scale", 0.25, "workload scale factor (1.0 = paper-sized)")
		threads    = flag.Int("threads", 0, "override worker thread count (0 = per-program default)")
		repeats    = flag.Int("repeats", 1, "timed runs per (program, mode); measurements are deterministic so 1 suffices")
		out        = flag.String("o", "", "write results.csv to this path")
		chart      = flag.Bool("chart", false, "render Figure 8 as ASCII bars")
		verbose    = flag.Bool("v", false, "log every measurement")
		list       = flag.Bool("list", false, "list catalog programs and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path on exit")
		soakEvents = flag.Int("soak-events", 200000, "requests for -experiment soak (the trace is several events per request)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qibench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "qibench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qibench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "qibench:", err)
			}
		}()
	}

	if *list {
		for _, s := range programs.All() {
			hints := ""
			if s.Hints.SoftBarrier {
				hints += "+"
			}
			if s.Hints.PCS {
				hints += "*"
			}
			fmt.Printf("%-28s %-12s %2d threads %s\n", s.Name, s.Suite, s.Threads, hints)
		}
		return
	}

	specs := selectSpecs(*suite, *program)
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "qibench: no programs selected")
		os.Exit(1)
	}

	r := &harness.Runner{
		Params:  workload.Params{Scale: *scale, Threads: *threads, InputSeed: 42},
		Repeats: *repeats,
	}
	if *verbose {
		r.Log = os.Stderr
	}

	switch *experiment {
	case "fig8":
		rows := runFig8(r, specs, *out)
		if *chart {
			harness.FprintChart(os.Stdout, rows, []harness.Mode{harness.VanillaRR(), harness.ParrotSoft(), harness.QiThread()}, 16)
		}
	case "policies":
		runPolicies(r, specs)
	case "scalability":
		runScalability(r)
	case "stability":
		runStability(r, *scale)
	case "x264":
		runX264(r)
	case "ablation":
		runAblation(r, specs)
	case "counters":
		runCounters(r, specs, *out)
	case "domains":
		runDomains(r, *out)
	case "ingress":
		runIngress(r, *out)
	case "controlplane":
		runControlplane(r, *out)
	case "soak":
		runSoak(*soakEvents)
	case "all":
		runFig8(r, specs, *out)
		fmt.Println()
		runPolicies(r, specs)
		fmt.Println()
		runScalability(r)
		fmt.Println()
		runStability(r, *scale)
		fmt.Println()
		runX264(r)
		fmt.Println()
		runAblation(r, ablationDefaults())
		fmt.Println()
		runDomains(r, "")
		fmt.Println()
		runIngress(r, "")
		fmt.Println()
		runControlplane(r, "")
	default:
		fmt.Fprintf(os.Stderr, "qibench: unknown experiment %q\n", *experiment)
		os.Exit(1)
	}
}

func selectSpecs(suite, program string) []programs.Spec {
	if program != "" {
		s, ok := programs.Find(program)
		if !ok {
			fmt.Fprintf(os.Stderr, "qibench: unknown program %q\n", program)
			os.Exit(1)
		}
		return []programs.Spec{s}
	}
	if suite != "" {
		return programs.BySuite(suite)
	}
	return programs.All()
}

func runFig8(r *harness.Runner, specs []programs.Spec, out string) []harness.Row {
	fmt.Printf("=== Figure 8: normalized execution times (%d programs, scale %.2f) ===\n", len(specs), r.Params.Scale)
	rows := r.Figure8(specs)

	var csv io.Writer
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qibench:", err)
			os.Exit(1)
		}
		defer f.Close()
		csv = f
	}
	modes := []harness.Mode{harness.VanillaRR(), harness.ParrotSoft(), harness.ParrotPCS(), harness.QiThread()}
	if csv != nil {
		harness.WriteCSVHeader(csv, modes)
	}
	fmt.Printf("%-28s %-12s %8s %8s %8s %8s\n", "program", "suite", "no-hint", "parrot", "par-pcs", "qithread")
	for _, row := range rows {
		pcs := "-"
		if v, ok := row.Norm[harness.ParrotPCS().Name]; ok {
			pcs = fmt.Sprintf("%.2f", v)
		}
		fmt.Printf("%-28s %-12s %8.2f %8.2f %8s %8.2f\n",
			row.Program, row.Suite,
			row.Norm[harness.VanillaRR().Name],
			row.Norm[harness.ParrotSoft().Name],
			pcs,
			row.Norm[harness.QiThread().Name])
		if csv != nil {
			harness.WriteCSVRow(csv, row, modes)
		}
	}
	fmt.Println()
	harness.FprintSummary(os.Stdout, harness.Summarize51(rows))
	return rows
}

func runPolicies(r *harness.Runner, specs []programs.Spec) {
	fmt.Printf("=== Section 5.2: per-policy effectiveness (%d programs) ===\n", len(specs))
	steps := r.PolicyEffectiveness(specs)
	for _, st := range steps {
		fmt.Printf("+%-13s benefited %3d programs, hurt %d\n", st.Name, len(st.Benefited), len(st.Hurt))
		if len(st.Benefited) > 0 {
			fmt.Printf("    benefited: %s\n", strings.Join(st.Benefited, " "))
		}
		if len(st.Hurt) > 0 {
			fmt.Printf("    hurt:      %s\n", strings.Join(st.Hurt, " "))
		}
	}
}

// scalabilityPrograms are the five randomly selected programs of Section 5.3.
var scalabilityPrograms = []string{"barnes", "bodytrack", "histogram", "convert_shear", "pbzip2_decompress"}

func runScalability(r *harness.Runner) {
	threadCounts := []int{4, 8, 16, 32}
	fmt.Printf("=== Section 5.3: scalability (%v threads) ===\n", threadCounts)
	res := r.Scalability(scalabilityPrograms, threadCounts)
	for _, re := range res {
		fmt.Printf("%-24s", re.Program)
		for mode, norms := range map[string][]float64{
			harness.ParrotSoft().Name: re.Norm[harness.ParrotSoft().Name],
			harness.QiThread().Name:   re.Norm[harness.QiThread().Name],
		} {
			fmt.Printf("  %s:", mode)
			for _, n := range norms {
				fmt.Printf(" %.2f", n)
			}
			fmt.Printf(" (dev %.0f%%)", re.MaxDeviationPct[mode])
		}
		fmt.Println()
	}
	var qiDev, parrotDev []float64
	for _, re := range res {
		qiDev = append(qiDev, re.MaxDeviationPct[harness.QiThread().Name])
		parrotDev = append(parrotDev, re.MaxDeviationPct[harness.ParrotSoft().Name])
	}
	fmt.Printf("max variation from mean overhead: qithread %.0f%%, parrot %.0f%%\n",
		maxOf(qiDev), maxOf(parrotDev))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func runStability(r *harness.Runner, scale float64) {
	fmt.Println("=== Section 2: schedule stability across 8 inputs (pbzip2) ===")
	spec, _ := programs.Find("pbzip2_compress")
	inputs := harness.StabilityInputs(workload.Params{Scale: scale, InputSeed: 7, Threads: r.Params.Threads}, 8)
	for _, mode := range []harness.Mode{harness.VanillaRR(), harness.QiThread(), harness.Kendo()} {
		res := r.Stability(spec, mode, inputs)
		fmt.Printf("%-22s distinct schedules: %d of %d inputs (prefix agreement vs input 0: %v)\n",
			mode.Name, res.Distinct, res.Inputs, res.PrefixLen)
	}
}

// ablationDefaults are one representative program per policy target: a
// producer-consumer (WakeAMAP), a create loop (CreateAll), a lock-heavy task
// queue (CSWhole), an OpenMP program (BranchedWake/BoostBlocked), and the
// vips pathology (nothing helps).
func ablationDefaults() []programs.Spec {
	var out []programs.Spec
	for _, name := range []string{"pbzip2_compress", "histogram-pthread", "pfscan", "convert_blur", "vips"} {
		if s, ok := programs.Find(name); ok {
			out = append(out, s)
		}
	}
	return out
}

func runAblation(r *harness.Runner, specs []programs.Spec) {
	if len(specs) > 8 {
		specs = ablationDefaults()
	}
	fmt.Printf("=== Ablation: single-policy and leave-one-out configurations (%d programs) ===\n", len(specs))
	fmt.Println("(each cell: normalized time with ONLY that policy / with all policies EXCEPT it)")
	harness.FprintAblation(os.Stdout, r.Ablation(specs))
}

// runCounters runs each program once under the full QiThread stack and
// reports every policy's decision counters — which policy picked turns,
// boosted wake-ups, or retained the turn, and how often. This is the
// attribution view behind the Section 5.2 effectiveness numbers: a policy
// with zero decisions on a program cannot be the source of its speedup.
func runCounters(r *harness.Runner, specs []programs.Spec, out string) {
	fmt.Printf("=== Per-policy decision counters (all-policies stack, %d programs) ===\n", len(specs))
	var csv io.Writer
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qibench:", err)
			os.Exit(1)
		}
		defer f.Close()
		csv = f
		fmt.Fprintln(csv, "program,policy,picks,wake_boosts,lease_extends,keep_turn_arms,dummy_syncs")
	}
	for _, spec := range specs {
		app := spec.Build(r.Params)
		rt := qithread.New(qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies})
		app(rt)
		fmt.Printf("%-28s (makespan %d)\n", spec.Name, rt.VirtualMakespan())
		for _, m := range rt.PolicyMetrics() {
			if m.Total() > 0 {
				fmt.Printf("  %s\n", m)
			}
			if csv != nil {
				fmt.Fprintf(csv, "%s,%s,%d,%d,%d,%d,%d\n", spec.Name, m.Policy,
					m.Picks, m.WakeBoosts, m.LeaseExtends, m.Arms, m.DummySyncs)
			}
		}
	}
}

// runDomains runs the scheduler-domain experiments: (1) the sharded server
// and map-reduce workloads at 1, 2, 4, 8 domains under the full QiThread
// configuration, with speedups normalized to the 1-domain run; (2) the
// boundary batch-size sweep — the same workloads in the streaming result
// shape (every per-item checksum shipped to the coordinator) at a fixed
// domain count across batch sizes, where batch 1 pays one turn-holding
// boundary slot per message and larger batches amortize the slot, lock and
// wake-up over up to batch messages. Virtual makespans are deterministic;
// wall clock is reported per point for reference.
func runDomains(r *harness.Runner, out string) {
	counts := []int{1, 2, 4, 8}
	fmt.Printf("=== Scheduler domains: sharded scaling (%v domains) ===\n", counts)
	points := r.DomainScaling(counts, harness.QiThread())
	base := make(map[string]float64)
	for _, pt := range points {
		if pt.Domains == 1 {
			base[pt.Workload] = float64(pt.Makespan)
		}
	}
	fmt.Printf("%-12s %8s %14s %14s %9s\n", "workload", "domains", "makespan", "wall", "speedup")
	for _, pt := range points {
		speedup := 0.0
		if b := base[pt.Workload]; b > 0 && pt.Makespan > 0 {
			speedup = b / float64(pt.Makespan)
		}
		fmt.Printf("%-12s %8d %14v %14v %8.2fx\n", pt.Workload, pt.Domains, pt.Makespan, pt.Wall, speedup)
	}

	const sweepDomains = 4
	batches := []int{1, 2, 4, 8, 16}
	fmt.Printf("\n=== Boundary batch sweep: streaming results, %d domains (batch %v) ===\n", sweepDomains, batches)
	sweep := r.DomainBatchSweep(sweepDomains, batches, harness.QiThread())
	sbase := make(map[string]float64)
	for _, pt := range sweep {
		if pt.Batch == batches[0] {
			sbase[pt.Workload] = float64(pt.Makespan)
		}
	}
	fmt.Printf("%-12s %8s %14s %14s %12s\n", "workload", "batch", "makespan", "wall", "vs batch=1")
	for _, pt := range sweep {
		speedup := 0.0
		if b := sbase[pt.Workload]; b > 0 && pt.Makespan > 0 {
			speedup = b / float64(pt.Makespan)
		}
		fmt.Printf("%-12s %8d %14v %14v %11.2fx\n", pt.Workload, pt.Batch, pt.Makespan, pt.Wall, speedup)
	}

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qibench:", err)
			os.Exit(1)
		}
		defer f.Close()
		harness.WriteDomainCSV(f, append(points, sweep...))
	}
}

// runIngress runs the ingress-admission experiment (E17): the ingress-driven
// request server with free-running sources across admission batch sizes, one
// overload point with a deliberately tight admission queue (deterministic
// shedding), and a record/replay determinism gate — a jittered live run whose
// log is replayed with every observable compared. Unlike the virtual-makespan
// experiments these measurements are wall-clock (the sources run in real
// time), so the throughput numbers vary between hosts; the determinism gate
// does not.
func runIngress(r *harness.Runner, out string) {
	batches := []int{1, 4, 16, 64}
	fmt.Printf("=== Ingress admission: batch sweep + overload shedding (batch %v) ===\n", batches)
	points := r.IngressSweep(batches, harness.QiThread())
	fmt.Printf("%-10s %-10s %10s %8s %8s %14s %14s\n", "max_batch", "queue", "admitted", "shed", "epochs", "wall", "admit/s")
	for _, pt := range points {
		q := "default"
		if pt.QueueCap > 0 {
			q = fmt.Sprintf("%d", pt.QueueCap)
		}
		fmt.Printf("%-10d %-10s %10d %8d %8d %14v %14.0f\n",
			pt.MaxBatch, q, pt.Admitted, pt.Shed, pt.Epochs, pt.Wall, pt.Throughput)
	}
	fmt.Print("record/replay gate: ")
	if err := harness.IngressReplayCheck(r.Params, harness.QiThread().Cfg, 5); err != nil {
		fmt.Println("FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("5 jittered-log replays identical")

	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qibench:", err)
			os.Exit(1)
		}
		defer f.Close()
		harness.WriteIngressCSV(f, points)
	}
}

// runSoak is experiment E19: a million-event streaming record. The ingress
// server runs live with BOTH streaming sinks attached — the schedule goes to
// a rotated binary segment writer, the ingress log to a binary batch writer —
// plus periodic epoch checkpoints, while a sampler watches the heap to show
// recording memory stays flat. Afterwards the streamed schedule is loaded
// back (its hash must equal the run's fingerprint), re-encoded as text to
// measure the size and load-time ratios, and the streamed ingress log is
// replayed in streaming mode to the recorded observables.
func runSoak(requests int) {
	fmt.Printf("=== E19 soak: bounded-memory streaming record (%d requests) ===\n", requests)
	dir, err := os.MkdirTemp("", "qisoak")
	if err != nil {
		fatalSoak(err)
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "sched.qbin")
	sw, err := trace.NewSegmentedWriter(base, 16<<20)
	if err != nil {
		fatalSoak(err)
	}
	logPath := filepath.Join(dir, "ingress.qlog")
	logF, err := os.Create(logPath)
	if err != nil {
		fatalSoak(err)
	}
	blw, err := ingress.NewBinaryLogWriter(logF)
	if err != nil {
		fatalSoak(err)
	}

	wcfg := workload.IngressServerConfig{
		Sources: 4, Events: requests, Workers: 3,
		MaxBatch: 64, ParseWork: 4, StateWork: 2,
		CheckpointEvery: 64,
		Sink:            blw,
	}
	p := workload.Params{Scale: 1, InputSeed: 42}
	rtcfg := harness.QiThread().Cfg
	rtcfg.StreamTrace = func(domainID int) qithread.TraceSink {
		if domainID != 0 {
			return nil
		}
		return sw
	}

	// Heap sampler: HeapAlloc every 25ms while the soak runs. A retained-mode
	// recording of the same run grows without bound; streaming must not.
	var (
		samples []uint64
		stop    = make(chan struct{})
		done    sync.WaitGroup
	)
	done.Add(1)
	go func() {
		defer done.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			samples = append(samples, ms.HeapAlloc)
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	run := workload.RunIngressServer(wcfg, p, rtcfg, nil)
	close(stop)
	done.Wait()
	if err := sw.Close(); err != nil {
		fatalSoak(err)
	}
	if err := blw.Close(); err != nil {
		fatalSoak(err)
	}
	if err := logF.Close(); err != nil {
		fatalSoak(err)
	}

	segs, err := logio.ListSegments(base)
	if err != nil {
		fatalSoak(err)
	}
	var binBytes int64
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			fatalSoak(err)
		}
		binBytes += fi.Size()
	}
	fmt.Printf("recorded:  %d admitted in %d epochs, %v wall (%.0f req/s)\n",
		run.Stats.Admitted, run.Stats.Epochs, run.Wall.Round(time.Millisecond),
		float64(run.Stats.Admitted)/run.Wall.Seconds())
	fmt.Printf("schedule:  %d events streamed to %d segment(s), %d bytes (%.1f B/event)\n",
		sw.Len(), len(segs), binBytes, float64(binBytes)/float64(sw.Len()))
	var ckptBytes int
	if n := len(run.Checkpoints); n > 0 {
		var buf bytes.Buffer
		if err := qithread.SaveCheckpoint(&buf, run.Checkpoints[n-1]); err != nil {
			fatalSoak(err)
		}
		ckptBytes = buf.Len()
		fmt.Printf("ckpts:     %d (every %d epochs), last at epoch %d is %d bytes\n",
			n, wcfg.CheckpointEvery, run.Checkpoints[n-1].Epoch(), ckptBytes)
	}
	mb := func(v uint64) float64 { return float64(v) / (1 << 20) }
	first, max, last := samples[0], samples[0], samples[len(samples)-1]
	for _, s := range samples {
		if s > max {
			max = s
		}
	}
	fmt.Printf("heap:      first %.1f MB, max %.1f MB, last %.1f MB over %d samples (streaming holds it flat)\n",
		mb(first), mb(max), mb(last), len(samples))

	// Load the streamed schedule back and check it commits to the run, then
	// time both formats. The first (untimed) load doubles as warm-up: it also
	// produces the text re-encoding, so both timed loads run with the same
	// live heap — otherwise whichever format loads first pays the whole GC
	// ramp from a small heap to a hundred-megabyte one and the ratio measures
	// allocator pacing, not decoding.
	events, err := trace.LoadSegments(base)
	if err != nil {
		fatalSoak(err)
	}
	if h := trace.Hash(events); h != run.Fingerprint.DomainHashes[0] {
		fatalSoak(fmt.Errorf("streamed schedule hashes to %016x, fingerprint says %016x", h, run.Fingerprint.DomainHashes[0]))
	}
	var text bytes.Buffer
	if err := trace.Save(&text, events); err != nil {
		fatalSoak(err)
	}
	textBytes := int64(text.Len())
	runtime.GC()
	t0 := time.Now()
	if _, err := trace.LoadSegments(base); err != nil {
		fatalSoak(err)
	}
	binLoad := time.Since(t0)
	runtime.GC()
	t0 = time.Now()
	if _, err := trace.Load(bytes.NewReader(text.Bytes())); err != nil {
		fatalSoak(err)
	}
	textLoad := time.Since(t0)
	fmt.Printf("load:      binary %d events in %v (%.0f ev/s), text in %v (%.0f ev/s)\n",
		len(events), binLoad.Round(time.Millisecond), float64(len(events))/binLoad.Seconds(),
		textLoad.Round(time.Millisecond), float64(len(events))/textLoad.Seconds())
	fmt.Printf("ratios:    binary is %.1fx smaller than text (%d vs %d bytes), %.1fx faster to load\n",
		float64(textBytes)/float64(binBytes), binBytes, textBytes,
		textLoad.Seconds()/binLoad.Seconds())

	// Replay the streamed ingress log — also in streaming mode, so the check
	// itself runs in bounded memory — and require the recorded observables.
	lf, err := os.Open(logPath)
	if err != nil {
		fatalSoak(err)
	}
	ilog, err := qithread.LoadIngressLog(lf)
	lf.Close()
	if err != nil {
		fatalSoak(err)
	}
	wcfg.Sink = nil
	nullSink, err := trace.NewBinaryWriter(io.Discard)
	if err != nil {
		fatalSoak(err)
	}
	rtcfg.StreamTrace = func(domainID int) qithread.TraceSink {
		if domainID != 0 {
			return nil
		}
		return nullSink
	}
	rerun := workload.RunIngressServer(wcfg, p, rtcfg, ilog)
	obs := func(r workload.IngressRun) string {
		return fmt.Sprintf("output=%d fingerprint=[%s] admit=%016x shed=%016x",
			r.Output, r.Fingerprint, r.AdmitHash, r.ShedHash)
	}
	if got, want := obs(rerun), obs(run); got != want {
		fatalSoak(fmt.Errorf("streamed replay diverged:\n  recorded: %s\n  replayed: %s", want, got))
	}
	fmt.Printf("replay:    streamed log re-fed in streaming mode, observables identical\n  %s\n", obs(run))
}

func fatalSoak(err error) {
	fmt.Fprintln(os.Stderr, "qibench: soak:", err)
	os.Exit(1)
}

func runX264(r *harness.Runner) {
	fmt.Println("=== Section 5.2: x264 with BoostBlocked toggled ===")
	spec, _ := programs.Find("x264")
	base := r.Measure(spec, harness.Nondet())
	for _, mode := range []harness.Mode{
		harness.ParrotSoft(),
		harness.QiThread(),
		harness.QiThreadWith(qithread.AllPolicies &^ qithread.BoostBlocked),
	} {
		tm := r.Measure(spec, mode)
		fmt.Printf("%-40s %.2fx (overhead %+.0f%%)\n", mode.Name,
			stats.Normalized(tm, base), stats.OverheadPct(stats.Normalized(tm, base)))
	}
}
