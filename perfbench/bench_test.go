package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qithread"
	"qithread/internal/explore"
)

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99},
		{9999, 0.99}, {10000, 0.999}, {1000000, 0.99999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	s := make(samples, 100)
	for i := range s {
		s[i] = float64(100 - i) // 100..1, unsorted
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := s.summary("ms"); got != "p50=50ms p90=90ms (n=100)" {
		t.Errorf("summary = %q", got)
	}
	if (samples{}).quantile(0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %g, want 4", got)
	}
	if geomean(nil) != 0 || geomean([]float64{3, 0}) != 0 {
		t.Error("geomean of an empty or non-positive set is not 0")
	}
}

// TestDueTimeLatency checks that latency runs from each request's due time,
// not from when the generator got to it, and that the attribution's stages
// and remainder add up to the latency.
func TestDueTimeLatency(t *testing.T) {
	in := &stepInput{due: []int64{1000, 2000, 3000}, put: []bool{false, false, false}, key: []int32{0, 0, 0}}
	run := &stepRun{start: 5000, done: []int64{9000, 0, 10_000}}
	lat, ids := latencies(in, run)
	// Request 0 was due at 6000 and done at 9000; request 1 never completed;
	// request 2 was due at 8000 and done at 10000.
	if len(lat) != 2 || ids[0] != 0 || ids[1] != 2 || lat[0] != 3000/1e6 || lat[1] != 2000/1e6 {
		t.Fatalf("latencies = %v %v", lat, ids)
	}

	// One request due at 0: the generator pushed it 100ns late, Admit had
	// been waiting since before the push, and the rest of the path follows.
	in = &stepInput{due: make([]int64, 10), put: make([]bool, 10), key: make([]int32, 10)}
	run = &stepRun{done: make([]int64, 10), tr: make([]reqTrace, 10)}
	for i := range in.due {
		run.tr[i] = reqTrace{P0: 100, P1: 150, A0: 50, A1: 400, X0: 450, X1: 500, R0: 480, R1: 900,
			Q0: 950, Q1: 1000, W0: 990, W1: 2000, L0: 2100, L1: 2300, K0: 2400, K1: 3400}
		run.done[i] = 3500
	}
	a := attribute(in, run)
	want := attribution{n: 1, latency: 3.5, late: 0.1, wait: 0, admit: 0.3, xhop: 0.45, hop: 1.05, lock: 0.2, work: 1, rem: 0.4}
	if a.n != want.n {
		t.Fatalf("attributed %d requests, want %d", a.n, want.n)
	}
	for _, c := range [][2]float64{{a.latency, want.latency}, {a.late, want.late}, {a.wait, want.wait},
		{a.admit, want.admit}, {a.xhop, want.xhop}, {a.hop, want.hop}, {a.lock, want.lock},
		{a.work, want.work}, {a.rem, want.rem}} {
		if math.Abs(c[0]-c[1]) > 1e-9 {
			t.Errorf("attribution %+v, want %+v", a, want)
			break
		}
	}
}

// TestCatalogPlantedDivergence plants executions that diverge from their
// program's modal tuple and one with a wrong output; the check must count
// each once. The same divergence in a known-nondeterministic program is
// counted as the known-defect share, not as failed, but its wrong output
// still fails.
func TestCatalogPlantedDivergence(t *testing.T) {
	ok := execTuple{out: 7, ops: 10, turns: 20, leaseHash: 3, vmakespan: 100}
	other := ok
	other.leaseHash = 4
	slower := ok
	slower.vmakespan = 101
	wrongOut := ok
	wrongOut.out = 8
	execs := []catalogExec{
		{prog: 0, tup: other}, {prog: 0, tup: ok}, {prog: 0, tup: ok}, {prog: 0, tup: slower}, {prog: 0, tup: ok},
		{prog: 1, tup: ok}, {prog: 1, tup: ok}, {prog: 1, tup: wrongOut},
		{prog: 1, tup: ok, diverged: true}, // a replay that recorded another schedule
	}
	r := newReport()
	modal, known, knownExecs := checkCatalog(r, []string{"p0", "p1"}, execs, []uint64{7, 7})
	if r.failed != 4 || r.correct || modal[0] != ok || modal[1] != ok || known != 0 || knownExecs != 0 {
		t.Fatalf("failed=%d correct=%v modal=%+v known=%d/%d, want 4 false ok 0/0\n%s",
			r.failed, r.correct, modal, known, knownExecs, strings.Join(r.lines, "\n"))
	}

	r = newReport()
	_, known, knownExecs = checkCatalog(r, []string{"p0", "canneal"}, execs, []uint64{7, 7})
	if r.failed != 3 || r.correct || known != 1 || knownExecs != 4 {
		t.Fatalf("with canneal: failed=%d correct=%v known=%d/%d, want 3 false 1/4\n%s",
			r.failed, r.correct, known, knownExecs, strings.Join(r.lines, "\n"))
	}

	// A tie goes to the tuple seen first.
	if m := modalTuples([]catalogExec{{tup: other}, {tup: ok}}, 1); m[0] != other {
		t.Fatalf("modal of a tie = %+v, want the first seen", m[0])
	}
}

// TestServePlantedReplayMismatch runs a small server live, replays its
// decoded logs, then replays a log with two requests' payloads swapped: the
// check must count every request of the step as failed.
func TestServePlantedReplayMismatch(t *testing.T) {
	o := options{seed: 1, nproc: 2, tmp: t.TempDir()}
	in := genStep(rand.New(rand.NewSource(1)), serveRate{name: "busy", rps: 20000}, 0.02)
	live, err := serveStep(o, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, why, err := replayStep(o, in, live)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	checkStep(r, in, live, why)
	if r.failed != 0 || !r.correct {
		t.Fatalf("clean replay: failed=%d correct=%v\n%s", r.failed, r.correct, strings.Join(r.lines, "\n"))
	}

	log, err := qithread.LoadIngressLog(strings.NewReader(string(live.ingressLog)))
	if err != nil {
		t.Fatal(err)
	}
	first, last := &log.Batches[0].Events[0], &log.Batches[len(log.Batches)-1].Events[0]
	first.Data, last.Data = last.Data, first.Data
	rep, err := serveStep(o, in, log)
	if err != nil {
		t.Fatal(err)
	}
	why = replayMismatch(live, rep)
	if why == "" {
		t.Fatal("replay of a tampered log matched the live run")
	}
	r = newReport()
	checkStep(r, in, live, why)
	if r.failed != int64(len(in.due)) {
		t.Fatalf("planted mismatch: failed=%d, want all %d requests", r.failed, len(in.due))
	}
}

// TestExplorePlantedMiss searches the control-plane app with the re-check
// restored, where there is no race to find, then the racy one: the check
// must count the first search as failed and pass the second.
func TestExplorePlantedMiss(t *testing.T) {
	o := options{seed: 1, nproc: 2, tmp: t.TempDir()}
	log := &execLog{}
	var searches []searchResult
	for _, name := range []string{"controlplane-fixed", exploreProgram} {
		res, err := search(o, recorded(explore.Lookup(name), log, false), log, 2, exploreBudgetSetup)
		if err != nil {
			t.Fatal(err)
		}
		searches = append(searches, res)
	}
	r := newReport()
	checkSearches(r, searches[:1])
	if r.attempted != 1 || r.failed != 1 {
		t.Fatalf("planted miss: attempted=%d failed=%d, want 1 1\n%s", r.attempted, r.failed, strings.Join(r.lines, "\n"))
	}
	r = newReport()
	checkSearches(r, searches[1:])
	if r.attempted != 1 || r.failed != 0 || searches[1].replays != reproReplays {
		t.Fatalf("racy search: attempted=%d failed=%d replays=%d\n%s", r.attempted, r.failed, searches[1].replays, strings.Join(r.lines, "\n"))
	}
}

// TestZipfKeys checks the key distribution: every key in range, and the
// hottest key drawn about 1/H(1000, 0.99) of the time.
func TestZipfKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	hot := 0
	for i := 0; i < n; i++ {
		k := zipfKey(rng)
		if k < 0 || k >= serveKeys {
			t.Fatalf("key %d out of range", k)
		}
		if k == 0 {
			hot++
		}
	}
	var h float64
	for k := 1; k <= serveKeys; k++ {
		h += math.Pow(float64(k), -zipfTheta)
	}
	if got, want := float64(hot)/n, 1/h; math.Abs(got-want) > 0.01 {
		t.Errorf("key 0 drawn %.4f of the time, want %.4f", got, want)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names exactly the metrics the
// benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the benchmark", w.Name)
		}
	}
}
