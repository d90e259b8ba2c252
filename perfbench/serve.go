package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"qithread"
	"qithread/internal/ingress"
	"qithread/internal/trace"
)

// The serve topology: one generator source feeds a gateway admitted by domain
// 0, which routes each request over an XPipe to one of the shard domains;
// each shard root hands requests to a worker pool over an in-domain Pipe, and
// workers read (RLock) or write (WLock) the shard's store.
//
// The request mix is the repository's bdb_bench3n skeleton (Berkeley DB's
// read-mostly transaction benchmark, internal/programs): 10% puts, 700 work
// units per get and 1600 per put. Keys follow YCSB's default request
// distribution: Zipfian with constant 0.99 over its core workloads' 1000
// records. Keys only route requests (key % shards), so the skew sets how
// unevenly the shards are loaded.
const (
	shards          = 2
	workersPerShard = 2
	serveKeys       = 1000
	zipfTheta       = 0.99
	putShare        = 0.1
	getWork         = 700  // Thread.Work units under RLock
	putWork         = 1600 // Thread.Work units under WLock
	gwMaxBatch      = 16
	// xpipeCap holds several admission batches, so domain 0 rarely blocks
	// on a shard that is briefly behind.
	xpipeCap = 64
	// pipeCap holds one admission batch for the shard's workers.
	pipeCap = 16
	// maxSinkSpans caps the sink-call spans kept per sink and step in a
	// traced run; the sinks' time and event totals are always complete.
	maxSinkSpans = 2000
)

// serveRate is one fixed open-loop rate step of a serve run.
type serveRate struct {
	name  string
	rps   float64
	share float64 // share of --seconds the step lasts
	// cutoff stops the generator at the step's end even when it is behind:
	// only at overload, where falling behind is the point.
	cutoff bool
}

var serveRates = []serveRate{
	{"light", 2000, 0.30, false},
	{"busy", 10000, 0.30, false},
	{"overload", 60000, 0.10, true},
}

// stepInput is one step's generated requests: due times (offsets from the
// step start), keys and operations, all from the seed.
type stepInput struct {
	rate  serveRate
	durNS int64
	due   []int64
	key   []int32
	put   []bool
	data  [][]byte // request payloads: the little-endian request id
}

// zipfCDF is the cumulative distribution of key k being drawn with weight
// 1/(k+1)^zipfTheta. math/rand's Zipf needs an exponent above 1, so keys are
// drawn by inverting this table.
var zipfCDF = func() []float64 {
	cdf := make([]float64, serveKeys)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfTheta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}()

// zipfKey draws a key from zipfCDF.
func zipfKey(rng *rand.Rand) int32 {
	return int32(min(sort.SearchFloat64s(zipfCDF, rng.Float64()), serveKeys-1))
}

// genStep generates a Poisson arrival schedule at the step's rate with
// Zipf-skewed keys and a read-mostly operation mix.
func genStep(rng *rand.Rand, rate serveRate, seconds float64) *stepInput {
	in := &stepInput{rate: rate, durNS: int64(seconds * 1e9)}
	for t := rng.ExpFloat64() / rate.rps; t < seconds; t += rng.ExpFloat64() / rate.rps {
		in.due = append(in.due, int64(t*1e9))
		in.key = append(in.key, zipfKey(rng))
		in.put = append(in.put, rng.Float64() < putShare)
	}
	buf := make([]byte, 4*len(in.due))
	in.data = make([][]byte, len(in.due))
	for i := range in.due {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(i))
		in.data[i] = buf[4*i : 4*i+4 : 4*i+4]
	}
	return in
}

// reqTrace holds one request's span boundaries on the benchmark clock
// (traced runs only): Push, Admit, SendAll, XPipe Recv, Pipe Send, Pipe
// Recv, lock acquisition and Work.
type reqTrace struct {
	P0, P1, A0, A1, X0, X1, R0, R1, Q0, Q1, W0, W1, L0, L1, K0, K1 int64
}

// timedTrace times a schedule sink's Append calls.
type timedTrace struct {
	w     *trace.BinaryWriter
	ns    int64
	spans []span
}

func (s *timedTrace) Append(e qithread.Event) error {
	t0 := now()
	err := s.w.Append(e)
	t1 := now()
	s.ns += t1 - t0
	if len(s.spans) < maxSinkSpans {
		s.spans = append(s.spans, span{Name: "trace.Append", Req: -1, Start: t0, End: t1})
	}
	return err
}

// timedBatches times the gateway sink's AppendBatch calls.
type timedBatches struct {
	w     *ingress.BinaryLogWriter
	ns    int64
	spans []span
}

func (s *timedBatches) AppendBatch(epoch int64, snap []qithread.IngressEvent) error {
	t0 := now()
	err := s.w.AppendBatch(epoch, snap)
	t1 := now()
	s.ns += t1 - t0
	if len(s.spans) < maxSinkSpans {
		s.spans = append(s.spans, span{Name: "ingress.AppendBatch", Req: -1, Start: t0, End: t1})
	}
	return err
}

// discard is the schedule sink of a replay, which records nothing.
type discard struct{}

func (discard) Append(qithread.Event) error { return nil }

// stepRun is one execution of the server over a step's input.
type stepRun struct {
	start, wallNS int64
	pushed        int
	done          []int64      // completion time per request; 0: not completed
	got           []uint64     // value a get read, or the value a put wrote
	dup           atomic.Int64 // requests completed more than once
	output        uint64
	fp            qithread.Fingerprint
	admit, shed   uint64
	gw            qithread.GatewayStat
	vmakespan     int64
	sched         schedCounts

	// Recorded logs (live runs).
	ingressLog   []byte
	traceLogs    [][]byte
	traceEvents  int64
	ingressEvts  int64
	encodeNS     int64
	sinkSpans    []span
	tr           []reqTrace
	admitCallNS  samples // Admit calls that returned requests
	sendAllNS    samples
	sendAllCalls int64
	sendAllMsgs  int64
}

// serveStep runs the server once over in: live from the generator, recording
// the schedule and the ingress log into memory, or, with replay set, from a
// decoded ingress log.
func serveStep(o options, in *stepInput, replay *qithread.IngressLog) (*stepRun, error) {
	n := len(in.due)
	run := &stepRun{done: make([]int64, n), got: make([]uint64, n)}
	traced := o.traced() && replay == nil
	if traced {
		run.tr = make([]reqTrace, n)
	}
	var traceBufs []*bytes.Buffer
	var traceWriters []*trace.BinaryWriter
	var timed []*timedTrace
	var sinkErr error
	cfg := qithread.Config{
		Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true,
		StreamTrace: func(int) qithread.TraceSink {
			if replay != nil {
				return discard{}
			}
			buf := &bytes.Buffer{}
			w, err := trace.NewBinaryWriter(buf)
			if err != nil {
				sinkErr = err
				return discard{}
			}
			traceBufs = append(traceBufs, buf)
			traceWriters = append(traceWriters, w)
			if traced {
				t := &timedTrace{w: w}
				timed = append(timed, t)
				return t
			}
			return w
		},
	}
	rt := qithread.New(cfg)
	doms := make([]*qithread.Domain, shards)
	xin := make([]*qithread.XPipe, shards)
	for k := range doms {
		doms[k] = rt.NewDomain(fmt.Sprintf("shard%d", k))
		xin[k] = rt.NewXPipe(fmt.Sprintf("requests%d", k), rt.Domain(0), doms[k], xpipeCap)
	}
	if sinkErr != nil {
		return nil, sinkErr
	}
	gcfg := qithread.GatewayConfig{MaxBatch: gwMaxBatch, Replay: replay}
	var ingressBuf bytes.Buffer
	var ingressW *ingress.BinaryLogWriter
	var timedIn *timedBatches
	if replay == nil {
		var err error
		if ingressW, err = ingress.NewBinaryLogWriter(&ingressBuf); err != nil {
			return nil, err
		}
		gcfg.Sink = ingressW
		if traced {
			timedIn = &timedBatches{w: ingressW}
			gcfg.Sink = timedIn
		}
	}
	gw := rt.Domain(0).NewGateway("front", gcfg)

	stores := make([][]uint64, shards)
	var pushed atomic.Int64
	start := now()
	rt.Run(func(main *qithread.Thread) {
		for k := range doms {
			stores[k] = make([]uint64, serveKeys)
			doms[k].Start("shard", func(root *qithread.Thread) { shardRoot(rt, root, xin[k], stores[k], in, run) })
		}
		for k := range doms {
			doms[k].Launch()
		}
		if replay == nil {
			gw.AddSource(ingress.FuncSource("generator", func(port *ingress.Port) {
				generate(port, in, start, run.tr, &pushed)
			}))
		}
		buf := make([]qithread.IngressEvent, gwMaxBatch)
		batch := make([][]any, shards)
		for {
			a0 := now()
			got, ok := gw.Admit(main, buf)
			a1 := now()
			if traced && got > 0 {
				run.admitCallNS = append(run.admitCallNS, float64(a1-a0))
			}
			for i := 0; i < got; i++ {
				id := int(binary.LittleEndian.Uint32(buf[i].Data))
				if traced {
					run.tr[id].A0, run.tr[id].A1 = a0, a1
				}
				k := int(in.key[id]) % shards
				batch[k] = append(batch[k], id)
			}
			for k := range batch {
				if len(batch[k]) == 0 {
					continue
				}
				x0 := now()
				xin[k].SendAll(main, batch[k])
				x1 := now()
				run.sendAllCalls++
				run.sendAllMsgs += int64(len(batch[k]))
				if traced {
					run.sendAllNS = append(run.sendAllNS, float64(x1-x0))
					for _, v := range batch[k] {
						run.tr[v.(int)].X0, run.tr[v.(int)].X1 = x0, x1
					}
				}
				batch[k] = batch[k][:0]
			}
			if !ok {
				break
			}
		}
		for k := range xin {
			xin[k].Close(main)
		}
	})
	run.wallNS = now() - start
	run.start = start
	run.pushed = int(pushed.Load())
	if replay != nil {
		run.pushed = replay.Events()
	}
	run.fp = rt.Fingerprint()
	run.admit, run.shed = gw.Hashes()
	run.gw = rt.GatewayStats()[0]
	run.vmakespan = rt.VirtualMakespan()
	run.sched = countSched(rt, run.wallNS)

	h := uint64(14695981039346656037)
	for i, v := range run.got {
		h = (h ^ (v + uint64(i)<<1)) * 1099511628211
	}
	for _, s := range stores {
		for _, v := range s {
			h = (h ^ v) * 1099511628211
		}
	}
	run.output = h

	if replay == nil {
		t0 := now()
		for _, w := range traceWriters {
			if err := w.Close(); err != nil {
				return nil, err
			}
			run.traceEvents += w.Len()
		}
		if err := ingressW.Close(); err != nil {
			return nil, err
		}
		run.encodeNS = now() - t0
		run.ingressEvts = ingressW.Events()
		run.ingressLog = ingressBuf.Bytes()
		for _, b := range traceBufs {
			run.traceLogs = append(run.traceLogs, b.Bytes())
		}
		for _, t := range timed {
			run.encodeNS += t.ns
			run.sinkSpans = append(run.sinkSpans, t.spans...)
		}
		if timedIn != nil {
			run.encodeNS += timedIn.ns
			run.sinkSpans = append(run.sinkSpans, timedIn.spans...)
		}
	}
	return run, nil
}

// generate is the open-loop generator: it pushes each request at its due
// time whether or not earlier ones have completed.
//
// It waits in nanosleep, which wakes within the kernel's 50 µs timer slack.
// Go timers wake up to ~1 ms late here, which would show as generator
// lateness, and polling the clock instead takes a CPU from the 2-CPU server
// and stalled its workers for milliseconds.
func generate(port *ingress.Port, in *stepInput, start int64, tr []reqTrace, pushed *atomic.Int64) {
	for i, d := range in.due {
		due := start + d
		if wait := due - now(); wait > 0 {
			ts := syscall.NsecToTimespec(wait)
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes this request late, which is measured
		}
		t := now()
		if in.rate.cutoff && t-start > in.durNS {
			return
		}
		if tr != nil {
			tr[i].P0 = t
		}
		port.Push(in.data[i])
		if tr != nil {
			tr[i].P1 = now()
		}
		pushed.Store(int64(i + 1))
	}
}

// shardRoot receives the shard's requests one at a time and hands each to
// the worker pool; workers read or write the shard's store.
func shardRoot(rt *qithread.Runtime, root *qithread.Thread, in *qithread.XPipe, store []uint64, step *stepInput, run *stepRun) {
	work := rt.NewPipe(root, "work", pipeCap)
	mu := rt.NewRWMutex(root, "store")
	tr := run.tr
	workers := make([]*qithread.Thread, workersPerShard)
	for i := range workers {
		workers[i] = root.Create(fmt.Sprintf("worker%d", i), func(w *qithread.Thread) {
			for {
				w0 := now()
				v, ok := work.Recv(w)
				w1 := now()
				if !ok {
					return
				}
				id := v.(int)
				key := step.key[id]
				l0 := now()
				if step.put[id] {
					mu.WLock(w)
				} else {
					mu.RLock(w)
				}
				l1 := now()
				var k0, k1 int64
				if step.put[id] {
					val := (uint64(id)+1)<<20 | uint64(key)
					store[key] = val
					run.got[id] = val
					k0 = now()
					w.Work(putWork)
					k1 = now()
					mu.WUnlock(w)
				} else {
					run.got[id] = store[key]
					k0 = now()
					w.Work(getWork)
					k1 = now()
					mu.RUnlock(w)
				}
				c := now()
				if run.done[id] != 0 {
					run.dup.Add(1)
				}
				run.done[id] = c
				if tr != nil {
					t := &tr[id]
					t.W0, t.W1, t.L0, t.L1, t.K0, t.K1 = w0, w1, l0, l1, k0, k1
				}
			}
		})
	}
	for {
		r0 := now()
		v, ok := in.Recv(root)
		r1 := now()
		if !ok {
			break
		}
		q0 := now()
		work.Send(root, v)
		q1 := now()
		if tr != nil {
			t := &tr[v.(int)]
			t.R0, t.R1, t.Q0, t.Q1 = r0, r1, q0, q1
		}
	}
	work.Close(root)
	for _, w := range workers {
		root.Join(w)
	}
}

// checkGets verifies every completed get read either nothing or a value a
// put on the same key wrote, and returns the ids that did not.
func checkGets(in *stepInput, run *stepRun) []int {
	var bad []int
	for i, c := range run.done {
		if c == 0 || in.put[i] {
			continue
		}
		v := run.got[i]
		if v == 0 {
			continue
		}
		w := int(v>>20) - 1
		if int32(v&(1<<20-1)) != in.key[i] || w < 0 || w >= len(in.put) || !in.put[w] || in.key[w] != in.key[i] {
			bad = append(bad, i)
		}
	}
	return bad
}

// replayStep decodes a live step's recorded logs and replays the server from
// the ingress log. It reports the replay's wall time, decode time included,
// and whether it reproduced the live run.
func replayStep(o options, in *stepInput, live *stepRun) (wallNS, decodeNS int64, why string, err error) {
	t0 := now()
	log, err := qithread.LoadIngressLog(bytes.NewReader(live.ingressLog))
	if err != nil {
		return 0, 0, "", fmt.Errorf("decode ingress log: %w", err)
	}
	var events int64
	for _, b := range live.traceLogs {
		evs, err := trace.Load(bytes.NewReader(b))
		if err != nil {
			return 0, 0, "", fmt.Errorf("decode schedule log: %w", err)
		}
		events += int64(len(evs))
	}
	decodeNS = now() - t0
	rep, err := serveStep(o, in, log)
	if err != nil {
		return 0, 0, "", err
	}
	wallNS = now() - t0
	switch {
	case events != live.traceEvents:
		why = fmt.Sprintf("schedule log decoded %d events, %d were recorded", events, live.traceEvents)
	case int64(log.Events()) != live.ingressEvts:
		why = fmt.Sprintf("ingress log decoded %d events, %d were recorded", log.Events(), live.ingressEvts)
	default:
		why = replayMismatch(live, rep)
	}
	return wallNS, decodeNS, why, nil
}

// checkStep counts a step's failed requests. At the light and busy rates a
// request fails when it was shed or not completed; a get fails when it read
// a value no put on its key wrote; every request of the step fails when
// completions do not match admissions one to one, or when replaying the
// decoded logs did not reproduce the run (replayWhy names the difference).
func checkStep(r *report, in *stepInput, live *stepRun, replayWhy string) {
	n, name := int64(len(in.due)), in.rate.name
	var completed int64
	for _, c := range live.done {
		if c != 0 {
			completed++
		}
	}
	var failed int64
	if !in.rate.cutoff && completed < n {
		failed += n - completed
		r.printf("FAILED(%d): %s: requests shed or not completed", n-completed, name)
	}
	if bad := checkGets(in, live); len(bad) > 0 {
		r.correct = false
		failed += int64(len(bad))
		r.printf("FAILED(%d): %s: gets read a value no put on their key wrote (first id %d)", len(bad), name, bad[0])
	}
	if dup := live.dup.Load(); dup > 0 || completed != live.gw.Admitted {
		r.correct = false
		failed = n
		r.printf("FAILED(%d): %s: %d completions (%d duplicated) for %d admitted requests", n, name, completed, dup, live.gw.Admitted)
	}
	if replayWhy != "" {
		failed = n
		r.printf("FAILED(%d): %s: replay of the decoded logs differs: %s", n, name, replayWhy)
	}
	r.failed += failed
}

// replayMismatch names what a replay failed to reproduce, or returns "".
func replayMismatch(live, rep *stepRun) string {
	switch {
	case !live.fp.Equal(rep.fp):
		return fmt.Sprintf("fingerprint %v, live %v", rep.fp, live.fp)
	case live.output != rep.output:
		return fmt.Sprintf("output %x, live %x", rep.output, live.output)
	case live.admit != rep.admit || live.shed != rep.shed:
		return fmt.Sprintf("admit/shed hashes %x/%x, live %x/%x", rep.admit, rep.shed, live.admit, live.shed)
	}
	return ""
}

// latencies returns completed requests' latencies from their due times, in
// milliseconds, and the ids in the same order.
func latencies(in *stepInput, run *stepRun) (samples, []int) {
	var s samples
	var ids []int
	for i, c := range run.done {
		if c != 0 {
			s = append(s, float64(c-(run.start+in.due[i]))/1e6)
			ids = append(ids, i)
		}
	}
	return s, ids
}

// attribution splits the latency of the requests around the median (the
// 45th to 55th percentile) into the serving path's stages; the remainder is
// the latency no stage's span covers.
type attribution struct {
	n                                             int
	latency                                       float64
	late, wait, admit, xhop, hop, lock, work, rem float64 // µs, means
}

func attribute(in *stepInput, run *stepRun) attribution {
	lat, ids := latencies(in, run)
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lat[order[a]] < lat[order[b]] })
	lo, hi := len(order)*45/100, len(order)*55/100
	var a attribution
	for _, j := range order[lo:hi] {
		id := ids[j]
		t := run.tr[id]
		due := run.start + in.due[id]
		a.latency += float64(run.done[id] - due)
		a.late += float64(t.P0 - due)
		a.wait += float64(max(0, t.A0-t.P0))
		a.admit += float64(t.A1 - max(t.A0, t.P0))
		a.xhop += float64(t.R1 - t.X0)
		a.hop += float64(t.W1 - t.Q0)
		a.lock += float64(t.L1 - t.L0)
		a.work += float64(t.K1 - t.K0)
		a.n++
	}
	if a.n == 0 {
		return a
	}
	for _, f := range []*float64{&a.latency, &a.late, &a.wait, &a.admit, &a.xhop, &a.hop, &a.lock, &a.work} {
		*f /= float64(a.n) * 1e3
	}
	a.rem = a.latency - (a.late + a.wait + a.admit + a.xhop + a.hop + a.lock + a.work)
	return a
}

// merge folds b into a as request-weighted means.
func (a *attribution) merge(b attribution) {
	n := a.n + b.n
	if n == 0 {
		return
	}
	wa, wb := float64(a.n)/float64(n), float64(b.n)/float64(n)
	fa := []*float64{&a.latency, &a.late, &a.wait, &a.admit, &a.xhop, &a.hop, &a.lock, &a.work, &a.rem}
	fb := []float64{b.latency, b.late, b.wait, b.admit, b.xhop, b.hop, b.lock, b.work, b.rem}
	for i, f := range fa {
		*f = *f*wa + fb[i]*wb
	}
	a.n = n
}

// serveRoundSeconds is the length of one round through the three rates. The
// latency, capacity and replay metrics are medians over the rounds' steps:
// stalls of 10-25 ms hit a share of short steps on a shared 2-CPU host, and
// a single step's tail mostly measures whether one did.
const serveRoundSeconds = 2.5

// served is one rate step of a round: its input, live run and replay.
type served struct {
	in                 *stepInput
	live               *stepRun
	replayNS, decNS    int64
	steal, replaySteal int64 // hypervisor steal during the live step and its replay
}

// runServe runs the sharded server in rounds of serveRoundSeconds through the light, busy
// and overload rates, replaying every step from its recorded logs.
func runServe(o options) (*report, error) {
	r := newReport()
	nrounds := max(2, int(o.seconds/serveRoundSeconds))
	var inputs []*stepInput
	setup, err := setupTimes(5, func() error {
		rng := rand.New(rand.NewSource(o.seed))
		inputs = inputs[:0]
		for i := 0; i < nrounds; i++ {
			for _, rate := range serveRates {
				inputs = append(inputs, genStep(rng, rate, o.seconds*rate.share/float64(nrounds)))
			}
		}
		warm := genStep(rng, serveRate{"warmup", 1e6, 0, false}, 2e-3)
		live, err := serveStep(options{seed: o.seed, nproc: o.nproc, tmp: o.tmp}, warm, nil)
		if err != nil {
			return err
		}
		if int(live.gw.Admitted+live.gw.Shed) != len(warm.due) {
			return fmt.Errorf("serve: warm-up admitted %d and shed %d of %d requests", live.gw.Admitted, live.gw.Shed, len(warm.due))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = setup

	byRate := map[string][]served{}
	var completed, unsaturated, cpuNS int64
	var perShard [shards]int64
	var vms []float64
	// A round's replays are timed together: one step's replay is too short
	// to time on its own.
	type round struct{ replayed, replayNS, steal int64 }
	var rounds []round
	var cur round
	for i, in := range inputs {
		// Collect the previous step's garbage outside the measured steps, so
		// the peak RSS is that of one step, not of the collector's timing.
		runtime.GC()
		steal0, cpu0 := steal(), cpuTime()
		live, err := serveStep(o, in, nil)
		if err != nil {
			return nil, err
		}
		steal1, cpu1 := steal(), cpuTime()
		wall, dec, why, err := replayStep(o, in, live)
		if err != nil {
			return nil, err
		}
		steal2 := steal()
		checkStep(r, in, live, why)
		s, _ := latencies(in, live)
		r.attempted += int64(len(in.due))
		completed += int64(len(s))
		if !in.rate.cutoff {
			unsaturated += int64(len(s))
			cpuNS += cpu1 - cpu0
		}
		for _, k := range in.key {
			perShard[int(k)%shards]++
		}
		vms = append(vms, float64(live.vmakespan))
		byRate[in.rate.name] = append(byRate[in.rate.name], served{in, live, wall, dec, steal1 - steal0, steal2 - steal1})
		cur.replayed += live.gw.Admitted + live.gw.Shed
		cur.replayNS += wall
		cur.steal += steal2 - steal1
		if (i+1)%len(serveRates) == 0 {
			rounds = append(rounds, cur)
			cur = round{}
		}
		r.printf("serve %-8s %6.0f req/s offered: %d requests, %d pushed, %d admitted, %d shed, %d completed in %s; latency %s",
			in.rate.name, in.rate.rps, len(in.due), live.pushed, live.gw.Admitted, live.gw.Shed, len(s),
			time.Duration(live.wallNS).Round(time.Millisecond), s.summary("ms"))
	}
	// At light and busy every offered request completes, so completions per
	// second of wall time would restate the offered rate; per second of the
	// process's CPU time they move with the server's cost per request.
	r.e2e["runs_per_s"] = float64(unsaturated) / (float64(cpuNS) / 1e9)
	r.e2e["vmakespan_geomean"] = geomean(vms)
	var replayRates samples
	for _, rd := range quiet(rounds, func(rd round) int64 { return rd.steal }, quietShare) {
		replayRates = append(replayRates, float64(rd.replayed)/(float64(rd.replayNS)/1e9))
	}
	r.e2e["replay_rps"] = replayRates.median()
	stepSteal := func(st served) int64 { return st.steal }
	var capacity samples
	for _, st := range quiet(byRate["overload"], stepSteal, quietShare) {
		var last int64
		var n int
		for _, c := range st.live.done {
			if c != 0 {
				last = max(last, c)
				n++
			}
		}
		capacity = append(capacity, float64(n)/(float64(last-st.live.start)/1e9))
	}
	r.e2e["capacity_rps"] = capacity.median()
	for _, name := range []string{"light", "busy"} {
		var p50, tail samples
		for _, st := range quiet(byRate[name], stepSteal, quietShare) {
			s, _ := latencies(st.in, st.live)
			if !hasTail(len(s), e2eTail) {
				return nil, fmt.Errorf("serve: %d %s samples cannot support a p%s; raise --seconds", len(s), name, percentLabel(e2eTail))
			}
			p50 = append(p50, s.median())
			tail = append(tail, s.quantile(e2eTail))
		}
		r.e2e["p50_ms."+name], r.e2e["p90_ms."+name] = p50.median(), tail.median()
	}
	r.printf("serve: medians over the quiet half of %d rounds: capacity %.0f req/s at %.0f offered; replay %.0f req/s, decode included",
		nrounds, r.e2e["capacity_rps"], serveRates[2].rps, r.e2e["replay_rps"])
	r.printf("serve: %.0f light and busy requests per CPU-second; shard split %v of %d requests",
		r.e2e["runs_per_s"], perShard, r.attempted)

	if o.traced() {
		serveLayers(r, byRate, completed)
		for _, name := range []string{"light", "busy"} {
			for _, st := range byRate[name] {
				addRequestSpans(o.spans, st.in, st.live)
			}
		}
		for _, sts := range byRate {
			for _, st := range sts {
				for _, sp := range st.live.sinkSpans {
					o.spans.add(0, -1, sp.Name, sp.Start, sp.End)
				}
			}
		}
	}
	return r, nil
}

// serveLayers sets the per-layer metrics of a traced serve run and prints
// the latency attribution.
func serveLayers(r *report, byRate map[string][]served, completed int64) {
	var sched, over schedCounts
	var msgs, calls, admitted, epochs, blocks, shed, collected int64
	var events, bytesOut, encodeNS, decodeNS int64
	for name, sts := range byRate {
		for _, st := range sts {
			run := st.live
			sched.add(run.sched)
			if name == "overload" {
				over.add(run.sched)
				shed += run.gw.Shed
				collected += run.gw.Collected
			}
			msgs += run.sendAllMsgs
			calls += run.sendAllCalls
			admitted += run.gw.Admitted
			epochs += run.gw.Epoch
			blocks += run.gw.PushBlocks
			events += run.traceEvents + run.ingressEvts
			encodeNS += run.encodeNS
			decodeNS += st.decNS
			bytesOut += int64(len(run.ingressLog))
			for _, b := range run.traceLogs {
				bytesOut += int64(len(b))
			}
		}
	}
	sched.fill(r.layer)
	// Turn cost is a compute cost only where the server is saturated.
	r.layer["core.ns_per_turn"] = float64(over.wallNS) / float64(max(over.turns, 1))
	r.layer["core.turns_per_req"] = float64(sched.turns) / float64(max(completed, 1))
	r.layer["xpipe.msgs_per_slot"] = float64(msgs) / float64(max(calls, 1))
	r.layer["ingress.batch_mean"] = float64(admitted) / float64(max(epochs, 1))
	r.layer["ingress.push_blocks"] = float64(blocks)
	r.layer["ingress.shed_frac.overload"] = float64(shed) / float64(max(collected, 1))
	r.layer["codec.encode_ns_per_event"] = float64(encodeNS) / float64(max(events, 1))
	r.layer["codec.bytes_per_event"] = float64(bytesOut) / float64(max(events, 1))
	r.layer["codec.decode_ns_per_event"] = float64(decodeNS) / float64(max(events, 1))

	var lateAll samples
	for _, name := range []string{"light", "busy"} {
		var pipeHop, xHop, queue, late, rlock, wlock, admitNS, sendNS samples
		var a attribution
		for _, st := range byRate[name] {
			in, run := st.in, st.live
			for id, c := range run.done {
				if c == 0 {
					continue
				}
				t := run.tr[id]
				pipeHop = append(pipeHop, float64(t.W1-t.Q0)/1e3)
				xHop = append(xHop, float64(t.R1-t.X0)/1e3)
				queue = append(queue, float64(t.A1-t.P0)/1e3)
				if in.put[id] {
					wlock = append(wlock, float64(t.L1-t.L0)/1e3)
				} else {
					rlock = append(rlock, float64(t.L1-t.L0)/1e3)
				}
			}
			for id := 0; id < run.pushed; id++ {
				late = append(late, float64(run.tr[id].P0-(run.start+in.due[id]))/1e3)
			}
			admitNS = append(admitNS, run.admitCallNS...)
			sendNS = append(sendNS, run.sendAllNS...)
			a.merge(attribute(in, run))
		}
		lateAll = append(lateAll, late...)
		r.layer["core.pipe_hop_us.p50."+name] = pipeHop.median()
		r.layer["xpipe.hop_us.p50."+name] = xHop.median()
		r.layer["ingress.queue_us.p50."+name] = queue.median()
		r.layer["serve.attr_remainder_us."+name] = a.rem
		if name == "busy" {
			r.layer["core.rlock_wait_us.p99.busy"] = rlock.quantile(0.99)
			r.layer["core.wlock_wait_us.p99.busy"] = wlock.quantile(0.99)
			r.layer["xpipe.send_us.p99.busy"] = sendNS.quantile(0.99) / 1e3
			r.layer["ingress.admit_us.p50.busy"] = admitNS.median() / 1e3
		}
		r.printf("  %s: generator lateness %s; rlock wait %s; wlock wait %s", name,
			late.summary("us"), rlock.summary("us"), wlock.summary("us"))
		r.printf("  %s attribution over the %d requests around each step's p50 (mean %.1fus): generator lateness %.1f, admission wait %.1f, Admit %.1f, XPipe hop %.1f, in-domain hop %.1f, lock wait %.1f, Work %.1f, unexplained remainder %.1f (us)",
			name, a.n, a.latency, a.late, a.wait, a.admit, a.xhop, a.hop, a.lock, a.work, a.rem)
	}
	r.layer["gen.late_us.p99"] = lateAll.quantile(0.99)
}

// addRequestSpans turns each request's recorded boundaries into a root span
// from its due time to its completion with one child per call.
func addRequestSpans(l *spanLog, in *stepInput, run *stepRun) {
	for id, c := range run.done {
		if c == 0 {
			continue
		}
		t := run.tr[id]
		req := int64(id)
		root := l.add(0, req, "request:"+in.rate.name, run.start+in.due[id], c)
		lock := "RLock"
		if in.put[id] {
			lock = "WLock"
		}
		for _, sp := range []span{
			{Name: "Push", Start: t.P0, End: t.P1},
			{Name: "Admit", Start: t.A0, End: t.A1},
			{Name: "XPipe.SendAll", Start: t.X0, End: t.X1},
			{Name: "XPipe.Recv", Start: t.R0, End: t.R1},
			{Name: "Pipe.Send", Start: t.Q0, End: t.Q1},
			{Name: "Pipe.Recv", Start: t.W0, End: t.W1},
			{Name: lock, Start: t.L0, End: t.L1},
			{Name: "Work", Start: t.K0, End: t.K1},
		} {
			l.add(root, req, sp.Name, sp.Start, sp.End)
		}
	}
}
