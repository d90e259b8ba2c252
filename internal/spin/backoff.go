package spin

import "runtime"

// Spin-then-park channel receive. The scheduler's grant handoff and the
// goroutine pool's worker wakeup both park a goroutine on a channel that is
// usually refilled within a few hundred nanoseconds when another core is
// driving the program. A blocking receive immediately descends into the Go
// runtime's park/unpark machinery; polling the channel briefly first keeps
// the handoff on the CPU for the common short wait, when the sender runs on
// another core (at GOMAXPROCS > 1, e.g. a peer scheduler domain or the
// thread releasing the turn). This is the one tuned backoff implementation
// shared by both users.

const (
	// recvSpinBudget bounds the number of non-blocking polls before Recv
	// gives up and parks. The budget is deliberately small: the point is to
	// cover a same-order-of-magnitude-as-a-handoff wait, not to burn a core.
	recvSpinBudget = 128
	// recvYieldEvery interleaves a cooperative yield into the polling loop so
	// a spinning goroutine cannot starve the sender of its own P.
	recvYieldEvery = 16
)

// Recv receives from ch, spinning briefly before blocking. The channel stays
// the sole synchronization token: Recv only ever polls the channel itself
// (select with default), so its semantics — including the happens-before
// edge of the receive — are exactly those of a plain <-ch. On single-proc
// configurations (GOMAXPROCS=1) no sender can progress while the receiver
// spins, so Recv skips straight to the blocking receive after one poll.
func Recv[T any](ch <-chan T) T {
	select {
	case v := <-ch:
		return v
	default:
	}
	if runtime.GOMAXPROCS(0) > 1 {
		for i := 1; i <= recvSpinBudget; i++ {
			select {
			case v := <-ch:
				return v
			default:
			}
			if i%recvYieldEvery == 0 {
				runtime.Gosched()
			}
		}
	}
	return <-ch
}
