package core

import (
	"fmt"
	"sync"
	"testing"
)

// runThreads registers n threads and runs body(i, thread) on each in its own
// goroutine, waiting for all to finish. Bodies must end with Exit.
func runThreads(t *testing.T, s *Scheduler, n int, body func(i int, th *Thread)) {
	t.Helper()
	ths := make([]*Thread, n)
	for i := range ths {
		ths[i] = s.Register(fmt.Sprintf("t%d", i))
	}
	var wg sync.WaitGroup
	for i, th := range ths {
		wg.Add(1)
		go func(i int, th *Thread) {
			defer wg.Done()
			body(i, th)
		}(i, th)
	}
	wg.Wait()
}

func TestRoundRobinOrder(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies), Record: true})
	var order []int
	var mu sync.Mutex
	runThreads(t, s, 4, func(i int, th *Thread) {
		for r := 0; r < 3; r++ {
			s.GetTurn(th)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	want := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, order[i], v, order)
		}
	}
}

func TestTurnExclusive(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	var inTurn, max, count int
	var mu sync.Mutex
	runThreads(t, s, 8, func(i int, th *Thread) {
		for r := 0; r < 50; r++ {
			s.GetTurn(th)
			mu.Lock()
			inTurn++
			if inTurn > max {
				max = inTurn
			}
			count++
			mu.Unlock()
			mu.Lock()
			inTurn--
			mu.Unlock()
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	if max != 1 {
		t.Fatalf("turn held by %d threads simultaneously", max)
	}
	if count != 8*50 {
		t.Fatalf("count = %d, want %d", count, 8*50)
	}
}

func TestGetTurnReentrant(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	runThreads(t, s, 1, func(i int, th *Thread) {
		s.GetTurn(th)
		s.GetTurn(th) // must not deadlock: already holder
		if !s.HasTurn(th) {
			t.Error("expected to hold turn")
		}
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
}

func TestWaitSignalFIFO(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	const obj = uint64(99)
	var woken []int
	var mu sync.Mutex
	nWaiters := 3
	done := make(chan struct{})
	go func() {
		defer close(done)
		runThreads(t, s, nWaiters+1, func(i int, th *Thread) {
			if i < nWaiters {
				s.GetTurn(th)
				st := s.Wait(th, obj, NoTimeout)
				if st != WaitSignaled {
					t.Errorf("waiter %d: status %v", i, st)
				}
				mu.Lock()
				woken = append(woken, i)
				mu.Unlock()
				s.PutTurn(th)
				s.GetTurn(th)
				s.Exit(th)
				return
			}
			// Signaler: let all waiters park first by cycling turns.
			for r := 0; r < nWaiters+2; r++ {
				s.GetTurn(th)
				s.PutTurn(th)
			}
			for r := 0; r < nWaiters; r++ {
				s.GetTurn(th)
				s.Signal(th, obj)
				s.PutTurn(th)
			}
			s.GetTurn(th)
			s.Exit(th)
		})
	}()
	<-done
	for i := 0; i < nWaiters; i++ {
		if woken[i] != i {
			t.Fatalf("wake order %v, want FIFO 0..%d", woken, nWaiters-1)
		}
	}
}

func TestBroadcastWakesAllInOrder(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, BoostBlocked)})
	const obj = uint64(7)
	var woken []int
	var mu sync.Mutex
	runThreads(t, s, 4, func(i int, th *Thread) {
		if i < 3 {
			s.GetTurn(th)
			s.Wait(th, obj, NoTimeout)
			mu.Lock()
			woken = append(woken, i)
			mu.Unlock()
			s.PutTurn(th)
		} else {
			for r := 0; r < 5; r++ {
				s.GetTurn(th)
				s.PutTurn(th)
			}
			s.GetTurn(th)
			s.Broadcast(th, obj)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	if len(woken) != 3 || woken[0] != 0 || woken[1] != 1 || woken[2] != 2 {
		t.Fatalf("broadcast wake order %v, want [0 1 2]", woken)
	}
}

func TestWaitTimeout(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	runThreads(t, s, 1, func(i int, th *Thread) {
		s.GetTurn(th)
		st := s.Wait(th, 42, 5)
		if st != WaitTimeout {
			t.Errorf("status = %v, want timeout", st)
		}
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
	// Logical time must have jumped to the deadline even though the
	// program was otherwise idle.
	if got := s.TurnCount(); got < 5 {
		t.Fatalf("turn count %d, want >= 5", got)
	}
}

func TestTimeoutOrderingAmongWaiters(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	var order []int
	var mu sync.Mutex
	runThreads(t, s, 2, func(i int, th *Thread) {
		s.GetTurn(th)
		var timeout int64 = 20
		if i == 1 {
			timeout = 10 // second thread expires first
		}
		s.Wait(th, uint64(100+i), timeout)
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("timeout wake order %v, want [1 0]", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	deadlock := make(chan string, 1)
	s.SetDeadlockHandler(func(msg string) {
		select {
		case deadlock <- msg:
		default:
		}
		// Tests must still terminate: wake everything via broadcast is not
		// possible from here (no turn), so the handler simply records and
		// the test leaks the blocked goroutine deliberately.
	})
	th := s.Register("t0")
	go func() {
		s.GetTurn(th)
		s.Wait(th, 5, NoTimeout) // nobody will ever signal
	}()
	msg := <-deadlock
	if msg == "" {
		t.Fatal("expected deadlock diagnostic")
	}
}

func TestBoostBlockedPriority(t *testing.T) {
	// One thread is woken while two other threads sit in the run queue; with
	// BoostBlocked the woken thread must run before them.
	run := func(policies Policy) []int {
		s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, policies)})
		const obj = uint64(3)
		var order []int
		var mu sync.Mutex
		record := func(i int) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
		runThreads(t, s, 3, func(i int, th *Thread) {
			switch i {
			case 0: // waiter
				s.GetTurn(th)
				s.Wait(th, obj, NoTimeout)
				record(0)
				s.PutTurn(th)
			case 1: // signaler
				s.GetTurn(th)
				s.PutTurn(th) // let waiter park (it is ahead in the queue)
				s.GetTurn(th)
				s.Signal(th, obj)
				s.PutTurn(th)
				s.GetTurn(th)
				record(1)
				s.PutTurn(th)
			case 2: // bystander doing sync ops
				for r := 0; r < 3; r++ {
					s.GetTurn(th)
					record(2)
					s.PutTurn(th)
				}
			}
			s.GetTurn(th)
			s.Exit(th)
		})
		return order
	}

	boosted := run(BoostBlocked)
	// Find the positions of the waiter's record (0) and check what ran
	// between the signal and it: with BoostBlocked the waiter runs
	// immediately after the signaler's PutTurn even though thread 2 was
	// already queued.
	posOf := func(order []int, v int) int {
		for i, x := range order {
			if x == v {
				return i
			}
		}
		return -1
	}
	bp := posOf(boosted, 0)
	if bp < 0 {
		t.Fatalf("waiter never ran: %v", boosted)
	}
	vanilla := run(NoPolicies)
	vp := posOf(vanilla, 0)
	if bp > vp {
		t.Fatalf("BoostBlocked did not prioritize woken thread: boosted=%v vanilla=%v", boosted, vanilla)
	}
}

func TestLogicalClockMinRuns(t *testing.T) {
	s := New(Config{Mode: LogicalClock, Stack: DefaultStack(LogicalClock, NoPolicies)})
	var order []int
	var mu sync.Mutex
	runThreads(t, s, 2, func(i int, th *Thread) {
		if i == 0 {
			// Thread 0 accumulates a large clock before its first sync op,
			// so thread 1 (clock 0) must execute sync ops first even though
			// thread 0 registered first.
			s.AddWork(th, 1000)
		}
		for r := 0; r < 3; r++ {
			s.GetTurn(th)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	if order[0] != 1 || order[1] != 1 || order[2] != 1 {
		t.Fatalf("logical clock order %v, want thread 1 first three times", order)
	}
}

func TestLogicalClockTieBreakByID(t *testing.T) {
	s := New(Config{Mode: LogicalClock, Stack: DefaultStack(LogicalClock, NoPolicies)})
	var first int = -1
	var mu sync.Mutex
	runThreads(t, s, 3, func(i int, th *Thread) {
		s.GetTurn(th)
		mu.Lock()
		if first == -1 {
			first = i
		}
		mu.Unlock()
		s.PutTurn(th)
		s.GetTurn(th)
		s.Exit(th)
	})
	if first != 0 {
		t.Fatalf("tie broken to thread %d, want 0", first)
	}
}

func TestExitRemovesThread(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	runThreads(t, s, 3, func(i int, th *Thread) {
		if i == 0 {
			s.GetTurn(th)
			s.Exit(th) // exits immediately; others must still make progress
			return
		}
		for r := 0; r < 10; r++ {
			s.GetTurn(th)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
	if got := s.Live(); got != 0 {
		t.Fatalf("live = %d, want 0", got)
	}
}

func TestTraceTotalOrder(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies), Record: true})
	runThreads(t, s, 3, func(i int, th *Thread) {
		for r := 0; r < 5; r++ {
			s.GetTurn(th)
			s.TraceOp(th, OpYield, 0, StatusOK)
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.TraceOp(th, OpThreadEnd, 0, StatusOK)
		s.Exit(th)
	})
	tr := s.Trace()
	if len(tr) != 3*6 {
		t.Fatalf("trace length %d, want %d", len(tr), 3*6)
	}
	for i, e := range tr {
		if e.Seq != int64(i) {
			t.Fatalf("trace[%d].Seq = %d", i, e.Seq)
		}
	}
}

func TestRequireTurnPanics(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	th := s.Register("t0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for PutTurn without turn")
		}
	}()
	s.PutTurn(th)
}

func TestWaitersCount(t *testing.T) {
	s := New(Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, NoPolicies)})
	const obj = uint64(11)
	runThreads(t, s, 3, func(i int, th *Thread) {
		if i < 2 {
			s.GetTurn(th)
			s.Wait(th, obj, NoTimeout)
			s.PutTurn(th)
		} else {
			s.GetTurn(th)
			s.PutTurn(th)
			s.GetTurn(th)
			s.PutTurn(th)
			s.GetTurn(th)
			if got := s.Waiters(th, obj); got != 2 {
				t.Errorf("waiters = %d, want 2", got)
			}
			s.Broadcast(th, obj)
			if got := s.Waiters(th, obj); got != 0 {
				t.Errorf("waiters after broadcast = %d, want 0", got)
			}
			s.PutTurn(th)
		}
		s.GetTurn(th)
		s.Exit(th)
	})
}
