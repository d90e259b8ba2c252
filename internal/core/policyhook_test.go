package core

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"qithread/internal/policy"
)

// checkedBase decorates a base picker, verifying every thread it picks is
// reachable through the View's runnable walk — i.e. PickNext never returns a
// blocked or exited thread.
type checkedBase struct {
	inner policy.Picker
	bad   atomic.Int64
	picks atomic.Int64
}

func (p *checkedBase) Name() string { return "checked:" + p.inner.Name() }

func (p *checkedBase) Attach(slot int, c *policy.Counters) { p.inner.Attach(slot, c) }

func (p *checkedBase) PickNext(v policy.View) policy.Thread {
	t := p.inner.PickNext(v)
	if t != nil {
		p.picks.Add(1)
		found := false
		for r := v.NextRunnable(nil); r != nil; r = v.NextRunnable(r) {
			if r == t {
				found = true
				break
			}
		}
		if !found {
			p.bad.Add(1)
		}
	}
	return t
}

// hookProbe is a pure-observer layer that counts hook deliveries and watches
// the stack descriptor for mid-run drift. With boost set it routes every
// wake-up to the wake queue, exercising the base picker's wake-queue
// fallback under a custom stack.
type hookProbe struct {
	policy.Base
	boost     bool
	desc      func() string
	wantDesc  string
	descDrift atomic.Int64
	blocks    atomic.Int64
	wakes     atomic.Int64
	registers atomic.Int64
	exits     atomic.Int64
}

func (p *hookProbe) Name() string { return "probe" }

func (p *hookProbe) OnBlock(policy.Thread) {
	p.blocks.Add(1)
	if p.desc != nil && p.desc() != p.wantDesc {
		p.descDrift.Add(1)
	}
}

func (p *hookProbe) OnWake(_ policy.Thread, _ bool) (policy.Queue, bool) {
	p.wakes.Add(1)
	if p.boost {
		return policy.QueueWake, true
	}
	return policy.QueueRun, false
}

func (p *hookProbe) OnRegister(policy.Thread) { p.registers.Add(1) }

func (p *hookProbe) OnExit(policy.Thread) { p.exits.Add(1) }

// TestQuickHookDispatchInvariants drives random scripts through a custom
// stack and checks the engine's dispatch invariants: picks are always
// runnable, every OnBlock is paired with exactly one OnWake, every
// registration with exactly one exit, and the stack descriptor never changes
// mid-run. Identical scripts under identically composed fresh stacks must
// also produce identical traces.
func TestQuickHookDispatchInvariants(t *testing.T) {
	for _, boost := range []bool{false, true} {
		boost := boost
		name := "observe"
		if boost {
			name = "boost"
		}
		t.Run(name, func(t *testing.T) {
			run := func(sc script) ([]Event, *checkedBase, *hookProbe) {
				base := &checkedBase{inner: policy.RoundRobin().(policy.Picker)}
				probe := &hookProbe{boost: boost}
				stk := policy.New(base, probe)
				probe.desc, probe.wantDesc = stk.String, stk.String()
				return runScript(sc, Config{Mode: RoundRobin, Stack: stk}), base, probe
			}
			f := func(sc script) bool {
				tr, base, probe := run(sc)
				if base.bad.Load() != 0 {
					t.Logf("%d picks not in the runnable walk", base.bad.Load())
					return false
				}
				if base.picks.Load() == 0 {
					return false // every script schedules something
				}
				if probe.blocks.Load() != probe.wakes.Load() {
					t.Logf("blocks %d != wakes %d", probe.blocks.Load(), probe.wakes.Load())
					return false
				}
				n := int64(sc.threads())
				if probe.registers.Load() != n || probe.exits.Load() != n {
					t.Logf("registers %d exits %d, want %d", probe.registers.Load(), probe.exits.Load(), n)
					return false
				}
				if probe.descDrift.Load() != 0 {
					t.Log("stack descriptor changed mid-run")
					return false
				}
				tr2, _, _ := run(sc)
				return tracesEqual(tr, tr2)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickStackBitmaskEquivalence: any bitmask configuration compiled by
// DefaultStack (CanonicalStack's single-bundle construction) and the same set
// composed via FromSet produce byte-identical traces — the bitmask surface
// and the engine are observationally the same scheduler.
func TestQuickStackBitmaskEquivalence(t *testing.T) {
	f := func(sc script, bits uint8) bool {
		set := policy.Set(bits) & policy.AllPolicies
		canonical := runScript(sc, Config{Mode: RoundRobin, Stack: DefaultStack(RoundRobin, set)})
		stacked := runScript(sc, Config{Mode: RoundRobin, Stack: policy.FromSet(policy.RoundRobin(), set)})
		return tracesEqual(canonical, stacked)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCustomBaseDeterminism: a custom minimal-clock base passed as an
// explicit stack still schedules deterministically. (It is not trace-equal
// to Mode: LogicalClock, which additionally ticks clocks per turn and
// re-kicks on AddWork — the stack only replaces the pick rule.)
func TestQuickCustomBaseDeterminism(t *testing.T) {
	f := func(sc script) bool {
		a := runScript(sc, Config{Mode: RoundRobin, Stack: policy.New(policy.LogicalClock())})
		b := runScript(sc, Config{Mode: RoundRobin, Stack: policy.New(policy.LogicalClock())})
		return tracesEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
