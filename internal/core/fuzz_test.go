package core

import (
	"testing"
)

// FuzzScheduleDeterminism drives the scheduler with programs decoded from
// fuzzer-generated bytes: each byte triple (thread, action, argument)
// becomes one operation of a cooperating thread. The invariant under test is
// the central one of the system: the same program yields the same trace on
// two consecutive runs, under both queue-based and clock-based policies,
// and never corrupts the scheduler (panics other than deliberate deadlock
// detection would fail the fuzz run).
func FuzzScheduleDeterminism(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 2, 2, 2, 3, 0, 3, 1})
	f.Add([]byte{5, 2, 9, 1, 1, 1, 0, 2, 2, 3, 3, 3, 2, 0, 0, 4, 1, 7})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeScript(data)
		for _, c := range []struct {
			mode Mode
			set  Policy
		}{
			{RoundRobin, BoostBlocked},
			{LogicalClock, NoPolicies},
		} {
			run := func() []Event {
				return runDecoded(sc, Config{Mode: c.mode, Stack: DefaultStack(c.mode, c.set)})
			}
			if !tracesEqual(run(), run()) {
				t.Fatalf("nondeterministic trace under %v", c.mode)
			}
		}
	})
}

// decodedOp is one decoded operation.
type decodedOp struct {
	kind byte
	arg  byte
}

// decodeScript splits fuzz bytes into per-thread op lists for 3 threads.
func decodeScript(data []byte) [][]decodedOp {
	const threads = 3
	ops := make([][]decodedOp, threads)
	for i := 0; i+2 < len(data) && i < 60; i += 3 {
		tid := int(data[i]) % threads
		ops[tid] = append(ops[tid], decodedOp{kind: data[i+1] % 4, arg: data[i+2]})
	}
	return ops
}

func runDecoded(script [][]decodedOp, cfg Config) []Event {
	cfg.Record = true
	s := New(cfg)
	ths := make([]*Thread, len(script))
	for i := range ths {
		ths[i] = s.Register("f")
	}
	done := make(chan struct{}, len(ths))
	for i, th := range ths {
		go func(i int, th *Thread) {
			defer func() { done <- struct{}{} }()
			for _, op := range script[i] {
				switch op.kind {
				case 0:
					s.GetTurn(th)
					s.TraceOp(th, OpYield, 0, StatusOK)
					s.PutTurn(th)
				case 1:
					s.GetTurn(th)
					s.TraceOp(th, OpCondSignal, uint64(op.arg%4)+1, StatusOK)
					s.Signal(th, uint64(op.arg%4)+1)
					s.PutTurn(th)
				case 2:
					// Timed waits only: fuzz programs must terminate.
					s.GetTurn(th)
					s.TraceOp(th, OpCondTimedWait, uint64(op.arg%4)+1, StatusBlocked)
					s.Wait(th, uint64(op.arg%4)+1, int64(op.arg%5)+1)
					s.TraceOp(th, OpCondTimedWait, uint64(op.arg%4)+1, StatusReturn)
					s.PutTurn(th)
				case 3:
					s.AddWork(th, int64(op.arg))
				}
			}
			s.GetTurn(th)
			s.TraceOp(th, OpThreadEnd, 0, StatusOK)
			s.Exit(th)
		}(i, th)
	}
	for range ths {
		<-done
	}
	return s.Trace()
}
