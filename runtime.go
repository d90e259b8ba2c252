package qithread

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"qithread/internal/core"
	"qithread/internal/domain"
	"qithread/internal/policy"
)

// Runtime owns one deterministically scheduled multithreaded execution. All
// threads and synchronization objects of a program belong to one Runtime.
// A Runtime is single-use: create it, call Run, read results.
type Runtime struct {
	cfg   Config
	sched *core.Scheduler // default domain's scheduler; nil in Nondet mode
	stack *policy.Stack   // default domain's policy stack; nil in Nondet mode
	group *domain.Group   // partition registry; nil in Nondet mode

	domMu    sync.Mutex
	domains  []*Domain        // id order; domains[0] is the default domain
	gateways []*Gateway       // ingress gateways in creation order (checkpoint order)
	choosers map[int]Chooser  // per-domain choice-point hooks (Config.Chooser)
	chMu     sync.Mutex       // guards choosers

	wg      sync.WaitGroup
	nthread atomic.Int64 // total threads ever created (diagnostics)
	vMax    atomic.Int64 // Nondet mode: max final virtual clock over threads
}

// amax atomically raises a to at least v.
func amax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{cfg: cfg}
	if cfg.Mode.Deterministic() {
		mode := core.RoundRobin
		pol := cfg.Policies
		cost := vSyncCostDet
		switch cfg.Mode {
		case LogicalClock:
			mode = core.LogicalClock
			pol = core.NoPolicies
		case VirtualParallel:
			// The ideal-parallel baseline pays native (non-turn) costs.
			mode = core.VirtualParallel
			pol = core.NoPolicies
			cost = vSyncCostNondet
		}
		// The policy stack makes every scheduling decision: the bitmask
		// configuration compiles down to the canonical stack, while a custom
		// Config.Stack is used as given (its bitmask view is kept for
		// reporting). A stack instance carries per-scheduler state and
		// counters, so each domain gets its own: the custom stack schedules
		// the default domain and additional domains compile the equivalent
		// canonical stack.
		stk0 := cfg.Stack
		if stk0 != nil {
			pol = stk0.Set()
		}
		if cfg.StreamTrace != nil && !cfg.Record {
			panic("qithread: Config.StreamTrace requires Record")
		}
		if cfg.Resume != nil && !cfg.Record {
			panic("qithread: Config.Resume requires Record")
		}
		rt.group = domain.NewGroup(domain.Config{
			RetainDeliveryLog: cfg.RetainDeliveryLog,
			NewScheduler: func(id int) (*core.Scheduler, *policy.Stack) {
				stk := stk0
				if id != 0 || stk == nil {
					stk = core.DefaultStack(mode, pol)
				}
				var sink core.TraceSink
				if cfg.StreamTrace != nil {
					sink = cfg.StreamTrace(id)
				}
				sched := core.New(core.Config{
					Mode: mode, Stack: stk, Record: cfg.Record,
					Sink: sink, SuspendRecording: cfg.Resume != nil,
					VSyncCost: cost, DomainID: id, NoLease: cfg.NoTurnLease,
					Chooser: rt.domainChooser(id),
				})
				return sched, stk
			},
		})
		d0 := rt.addDomain("main")
		rt.sched = d0.sched
		rt.stack = d0.stack
		if cfg.Replay != nil {
			rt.sched.SetReplay(cfg.Replay)
		}
	} else {
		if cfg.Replay != nil {
			panic("qithread: Config.Replay requires a deterministic Mode")
		}
		if cfg.Stack != nil {
			panic("qithread: Config.Stack requires a deterministic Mode")
		}
		if cfg.StreamTrace != nil {
			panic("qithread: Config.StreamTrace requires a deterministic Mode")
		}
		if cfg.Resume != nil {
			panic("qithread: Config.Resume requires a deterministic Mode")
		}
		if cfg.Chooser != nil {
			panic("qithread: Config.Chooser requires a deterministic Mode")
		}
		rt.addDomain("main")
	}
	for i := 1; i < cfg.Domains; i++ {
		rt.addDomain("domain" + strconv.Itoa(i))
	}
	return rt
}

// addDomain appends the next scheduler domain (thread-safe; callers must
// still create domains in a deterministic order, see NewDomain).
func (rt *Runtime) addDomain(name string) *Domain {
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	d := &Domain{rt: rt, id: len(rt.domains), name: name}
	if rt.group != nil {
		d.inner = rt.group.Add(name)
		d.sched = d.inner.Scheduler()
		d.stack = d.inner.Stack()
	}
	rt.domains = append(rt.domains, d)
	return d
}

// domainChooser returns the choice-point hook for the given domain, creating
// it via Config.Chooser on first use (nil without Config.Chooser, or when the
// factory declines the domain). Each domain gets exactly one instance: the
// scheduler and the domain's ingress gateways must share it so a single
// decision sequence covers turn, wake and admission choices.
func (rt *Runtime) domainChooser(id int) Chooser {
	if rt.cfg.Chooser == nil {
		return nil
	}
	rt.chMu.Lock()
	defer rt.chMu.Unlock()
	if rt.choosers == nil {
		rt.choosers = make(map[int]Chooser)
	}
	ch, ok := rt.choosers[id]
	if !ok {
		ch = rt.cfg.Chooser(id)
		rt.choosers[id] = ch
	}
	return ch
}

// NewDomain creates an additional scheduler domain (beyond Config.Domains).
// Domain ids follow creation order, so domains must be created
// deterministically — in practice by the setup code before Run, or by the
// main thread. Populate the domain with Domain.Start + Domain.Launch.
func (rt *Runtime) NewDomain(name string) *Domain {
	return rt.addDomain(name)
}

// Domain returns the domain with the given id (0 is the default domain).
func (rt *Runtime) Domain(id int) *Domain {
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	if id < 0 || id >= len(rt.domains) {
		panic(fmt.Sprintf("qithread: no domain %d (have %d)", id, len(rt.domains)))
	}
	return rt.domains[id]
}

// NumDomains returns the number of scheduler domains.
func (rt *Runtime) NumDomains() int {
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	return len(rt.domains)
}

// allDomains snapshots the domain list in id order.
func (rt *Runtime) allDomains() []*Domain {
	rt.domMu.Lock()
	defer rt.domMu.Unlock()
	out := make([]*Domain, len(rt.domains))
	copy(out, rt.domains)
	return out
}

// VirtualMakespan returns the critical-path estimate of the program's
// parallel execution time in work units (see the virtual-time model in
// internal/core). Valid after Run returns. The experiment harness measures
// virtual makespans so the paper's parallelism results reproduce on any
// host, including single-core machines.
func (rt *Runtime) VirtualMakespan() int64 {
	if rt.sched == nil {
		return rt.vMax.Load()
	}
	// A partitioned execution finishes when its slowest domain does.
	var max int64
	for _, d := range rt.allDomains() {
		if v := d.sched.VirtualMakespan(); v > max {
			max = v
		}
	}
	return max
}

// Config returns the runtime configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Scheduler exposes the underlying deterministic scheduler (nil in Nondet
// mode). It is intended for tests and tools; programs use the wrappers.
func (rt *Runtime) Scheduler() *core.Scheduler { return rt.sched }

// Run executes main as the program's main thread and returns when every
// thread of every domain — the main thread, everything it transitively
// created, and all launched domain roots — has finished.
func (rt *Runtime) Run(main func(t *Thread)) {
	t := rt.newThread("main", rt.Domain(0))
	if rt.sched != nil {
		t.ct = rt.sched.Register("main")
	}
	rt.wg.Add(1)
	func() {
		defer rt.wg.Done()
		main(t)
		t.exit()
	}()
	rt.wg.Wait()
}

// Trace returns the default domain's recorded schedule (empty unless
// Config.Record). For other domains use Domain.Trace; for a whole
// partitioned execution use Fingerprint.
func (rt *Runtime) Trace() []Event {
	if rt.sched == nil {
		return nil
	}
	return rt.sched.Trace()
}

// Fingerprint condenses the execution for determinism checking: per-domain
// schedule hashes in id order plus a hash of the cross-domain delivery log.
// It replaces the single global schedule hash for partitioned executions
// (and subsumes it: with one domain it is exactly that hash plus an empty
// log). Valid after Run returns; zero value in Nondet mode.
func (rt *Runtime) Fingerprint() Fingerprint {
	if rt.group == nil {
		return Fingerprint{}
	}
	return rt.group.Fingerprint()
}

// DeliveryLog returns the canonical cross-domain delivery log: every XPipe
// delivery ordered by (pipe id, message sequence), each stamped with the
// sender's and receiver's domain-local schedule positions. The log is
// materialized only under Config.RetainDeliveryLog (fingerprinting does not
// need it); without the flag DeliveryLog returns nil. Valid after Run
// returns; nil in Nondet mode and in single-domain programs with no XPipes.
func (rt *Runtime) DeliveryLog() []Delivery {
	if rt.group == nil {
		return nil
	}
	return rt.group.DeliveryLog()
}

// TurnCount returns the number of completed scheduling turns (0 in Nondet
// mode).
func (rt *Runtime) TurnCount() int64 {
	if rt.sched == nil {
		return 0
	}
	return rt.sched.TurnCount()
}

// ThreadsCreated returns the total number of threads the runtime created,
// including the main thread.
func (rt *Runtime) ThreadsCreated() int64 { return rt.nthread.Load() }

// Stats returns the scheduler's activity counters (zero value in Nondet
// mode, which has no deterministic scheduler).
func (rt *Runtime) Stats() core.Stats {
	if rt.sched == nil {
		return core.Stats{}
	}
	return rt.sched.Stats()
}

func (rt *Runtime) newThread(name string, d *Domain) *Thread {
	id := rt.nthread.Add(1) - 1
	t := &Thread{
		rt:   rt,
		dom:  d,
		name: name,
		id:   int(id),
	}
	if !rt.det() {
		// Only Nondet-mode Join reads the done channel; deterministic modes
		// order exit observation under the turn, so they skip the allocation.
		t.nondetDone = make(chan struct{})
	}
	return t
}

// det reports whether the runtime schedules deterministically.
func (rt *Runtime) det() bool { return rt.sched != nil }

// PolicyStack returns the policy stack scheduling this runtime (nil in
// Nondet mode). Its Metrics attribute scheduling decisions to policies.
func (rt *Runtime) PolicyStack() *policy.Stack { return rt.stack }

// PolicyMetrics returns the per-policy decision counters of the runtime's
// policy stack (nil in Nondet mode).
func (rt *Runtime) PolicyMetrics() []policy.Metrics {
	if rt.stack == nil {
		return nil
	}
	return rt.stack.Metrics()
}
