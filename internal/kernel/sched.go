package kernel

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/timer"
)

// ProcState is a process's lifecycle state.
type ProcState int

// Process states.
const (
	ProcRunnable ProcState = iota
	ProcRunning
	ProcBlocked
	ProcDead
)

// Body is the executable content of a process: a Go step function standing
// in for its user-mode instruction stream. Each Step call represents a
// slice of user execution; it returns true when the process exits.
//
// Bodies run with the CPU in user mode under the process's address space,
// so their memory touches, system calls and device operations take the
// real trap paths.
type Body interface {
	Step(k *Kernel, p *Proc, c *arm.CPU) (done bool)
}

// BodyFunc adapts a function to Body.
type BodyFunc func(k *Kernel, p *Proc, c *arm.CPU) bool

// Step implements Body.
func (f BodyFunc) Step(k *Kernel, p *Proc, c *arm.CPU) bool { return f(k, p, c) }

// Proc is a schedulable process.
type Proc struct {
	PID   int
	Name  string
	State ProcState
	Body  Body
	AS    *AddrSpace

	// Affinity pins the process to a CPU (-1 = any). The paper's SMP
	// lmbench runs pin benchmark processes to separate CPUs (§5.1).
	Affinity int

	// Faults counts demand-paging faults taken.
	Faults uint64
	// ProtFaults counts protection (signal-delivery) faults taken.
	ProtFaults uint64
	// Steps counts body steps executed.
	Steps uint64

	// VRuntime is the fair-share virtual runtime in counter ticks (the
	// CFS analogue): time the process has actually held a CPU. pickNext
	// selects the runnable process with the smallest VRuntime, so an
	// overcommitted run queue converges to equal shares.
	VRuntime uint64
	// RunDelayTicks accumulates counter ticks spent runnable but waiting
	// for a CPU — steal time, from a vCPU thread's point of view
	// (/proc/<pid>/schedstat's run_delay).
	RunDelayTicks uint64
	// SchedSlices counts times the process was switched onto a CPU;
	// Preemptions counts times it was forced off while still runnable
	// (slice-tick or wakeup preemption, not a voluntary block).
	SchedSlices uint64
	Preemptions uint64
	// readyAt / runStart are runqueue-clock stamps (counter ticks) of the
	// last wakeup and the last switch-in, feeding the two accumulators
	// above without extra paid counter reads.
	readyAt  uint64
	runStart uint64

	cpu     int
	onCPU   bool
	ExitErr string

	// wchan is the wait queue the process sleeps on.
	wchan *WaitQueue
	// pending carries the in-flight system call (the register ABI).
	pending *syscallReq
	// parent links fork children for wait().
	parent *Proc
	// waitParent is where this process sleeps in wait().
	waitParent *WaitQueue
}

// WaitQueue is a kernel wait queue (pipes, I/O completion, wait()).
type WaitQueue struct {
	name    string
	waiters []*Proc
}

// NewWaitQueue creates a wait queue.
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{name: name} }

// DefaultSliceTicks is the scheduler's default time-slice quantum in
// counter ticks (~10k ticks; one tick is 1<<timer.CycleShift cycles).
const DefaultSliceTicks = 10_000

type cpuSched struct {
	k   *Kernel
	cpu int

	runq        []*Proc
	curr        *Proc
	needResched bool
	sliceTicks  uint32

	// Switches counts context switches on this CPU.
	Switches uint64

	// clockBase/cycBase cache the last paid runqueue-clock read and the
	// CPU cycle count at which it was taken: accounting stamps between
	// context switches derive from them for free, keeping the kernel at
	// exactly one paid counter read per switch (the Figure 3 cost model).
	clockBase uint64
	cycBase   uint64
}

func newCPUSched(k *Kernel, cpu int) *cpuSched {
	return &cpuSched{k: k, cpu: cpu, sliceTicks: DefaultSliceTicks}
}

// cachedClock extrapolates the runqueue clock from the last paid read.
func (s *cpuSched) cachedClock() uint64 {
	c := s.k.CPU(s.cpu)
	if c.Clock <= s.cycBase {
		return s.clockBase
	}
	return s.clockBase + timer.Count(c.Clock-s.cycBase)
}

// noteClock re-bases the cached clock from a paid counter read.
func (s *cpuSched) noteClock(now uint64, c *arm.CPU) {
	s.clockBase, s.cycBase = now, c.Clock
}

// SetTimeSlice sets the preemption quantum (counter ticks) on every CPU;
// 0 restores the default. Takes effect at each CPU's next context switch.
func (k *Kernel) SetTimeSlice(ticks uint32) {
	if ticks == 0 {
		ticks = DefaultSliceTicks
	}
	for _, s := range k.scheds {
		s.sliceTicks = ticks
	}
}

// TimeSlice reports the current preemption quantum in counter ticks.
func (k *Kernel) TimeSlice() uint32 { return k.scheds[0].sliceTicks }

// RunqueueLen reports logical cpu's run-queue load: queued runnable
// processes plus the one currently on the CPU. Placement layers (fleet
// overcommit) balance on this rather than raw busy cycles.
func (k *Kernel) RunqueueLen(cpu int) int {
	s := k.scheds[cpu]
	n := len(s.runq)
	if s.curr != nil {
		n++
	}
	return n
}

// NewProc creates a process with a fresh address space and enqueues it.
func (k *Kernel) NewProc(name string, affinity int, body Body) (*Proc, error) {
	as, err := k.NewAddrSpace()
	if err != nil {
		return nil, err
	}
	p := &Proc{PID: k.nextPID, Name: name, Body: body, AS: as, Affinity: affinity, cpu: 0}
	k.nextPID++
	k.procs[p.PID] = p
	k.enqueueAndKick(p)
	return p, nil
}

// NewProcFrom is NewProc issued from kernel context on logical CPU from:
// a process pinned to a different, possibly idle CPU is kicked with a
// reschedule IPI so it actually starts (the fork/exec wakeup path).
func (k *Kernel) NewProcFrom(from int, name string, affinity int, body Body) (*Proc, error) {
	as, err := k.NewAddrSpace()
	if err != nil {
		return nil, err
	}
	p := &Proc{PID: k.nextPID, Name: name, Body: body, AS: as, Affinity: affinity, cpu: 0}
	k.nextPID++
	k.procs[p.PID] = p
	k.wakeProc(from, p)
	return p, nil
}

// Proc returns the process with the given pid, if it exists.
func (k *Kernel) Proc(pid int) (*Proc, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// placeCPU chooses the run queue for a waking/new process. Pinned
// processes go to their CPU (an overcommitted pin wraps modulo the CPU
// count, so "vCPU 5 of 4 board CPUs" lands on CPU 1 instead of silently
// on CPU 0). Unpinned processes balance on run-queue load, keeping the
// previous CPU on ties for locality.
func (k *Kernel) placeCPU(p *Proc) int {
	if p.Affinity >= 0 {
		return p.Affinity % k.NumCPUs
	}
	prev := p.cpu
	if prev >= k.NumCPUs {
		prev = 0
	}
	best, bestLoad := prev, k.RunqueueLen(prev)
	for i := 0; i < k.NumCPUs; i++ {
		if i == prev {
			continue
		}
		if l := k.RunqueueLen(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// minVruntime is the smallest virtual runtime among this queue's runnable
// and running processes at runqueue-clock time now.
func (s *cpuSched) minVruntime(now uint64) (uint64, bool) {
	var minv uint64
	ok := false
	for _, q := range s.runq {
		if !ok || q.VRuntime < minv {
			minv, ok = q.VRuntime, true
		}
	}
	if p := s.curr; p != nil {
		v := p.VRuntime
		if now > p.runStart {
			v += now - p.runStart
		}
		if !ok || v < minv {
			minv, ok = v, true
		}
	}
	return minv, ok
}

// enqueue makes p runnable on a CPU chosen by placeCPU. It does not kick
// the target — wakeProc layers the cross-CPU IPI logic on top, and
// NewProc uses enqueueAndKick; the requeue paths (Yield, preemption) run
// on the target CPU itself where the scheduler loop is already live.
func (k *Kernel) enqueue(p *Proc) {
	cpu := k.placeCPU(p)
	p.cpu = cpu
	p.State = ProcRunnable
	s := k.scheds[cpu]
	now := s.cachedClock()
	p.readyAt = now
	// Fair placement (CFS place_entity): floor the arriving vruntime to
	// the queue's minimum, so neither a fresh process (VRuntime 0) nor a
	// long sleeper with a stale low vruntime can monopolize the CPU, and
	// the arrival still wins ties against longer-running peers.
	if minv, ok := s.minVruntime(now); ok && p.VRuntime < minv {
		p.VRuntime = minv
	}
	s.runq = append(s.runq, p)
}

// enqueueAndKick is enqueue plus the lost-wakeup closure for callers with
// no issuing-CPU context (NewProc): a queued process must eventually run
// even if the target CPU never takes another interrupt on its own.
func (k *Kernel) enqueueAndKick(p *Proc) {
	k.enqueue(p)
	cpu := p.cpu
	s := k.scheds[cpu]
	if s.curr != nil {
		// The current process runs tickless (its switch-in saw no
		// contention, so no slice timer is armed): without a kick the
		// arrival would wait for it to block voluntarily — maybe
		// forever. This is the lost-reschedule edge the overcommit
		// fairness tests pin.
		if k.timers[cpu].sliceDeadline == 0 {
			s.needResched = true
		}
	} else if k.CPU(cpu).WFIWait {
		// The target core already parked in WFI and nothing else will
		// interrupt it: raise the reschedule IPI so it wakes (the same
		// self-IPI wakeProc sends on its own paths).
		k.gicSendIPI(k.CPU(cpu), 1<<uint(cpu), IPIReschedule)
	}
}

// WakeFromIRQ is enqueue plus the cross-CPU kick, callable from interrupt
// context on cpu `from`.
func (k *Kernel) wakeProc(from int, p *Proc) {
	k.enqueue(p)
	target := p.cpu
	if target != from {
		// Cross-core wakeup: reschedule IPI through the distributor.
		// From a VM this MMIO write traps to the hypervisor and is
		// emulated by the virtual distributor — the dominant SMP cost
		// the paper measures (Table 3 "IPI", §6 recommendation).
		k.Stats.ReschedIPIs++
		c := k.CPU(from)
		k.gicSendIPI(c, 1<<uint(target), IPIReschedule)
		return
	}
	if k.CPU(target).WFIWait {
		// The target core sleeps in WFI (the wakeup came from an
		// asynchronous agent, e.g. a device completion): a self-IPI
		// is needed to bring it out.
		k.gicSendIPI(k.CPU(from), 1<<uint(target), IPIReschedule)
		return
	}
	k.scheds[target].needResched = true
}

// Wake moves every waiter off q, waking remote CPUs as needed. from is the
// logical CPU doing the waking.
func (k *Kernel) Wake(from int, q *WaitQueue) int {
	n := len(q.waiters)
	for _, p := range q.waiters {
		p.wchan = nil
		k.wakeProc(from, p)
	}
	q.waiters = q.waiters[:0]
	k.Charge(from, k.Cost.WaitQueueWork)
	return n
}

// Block puts the current process of cpu to sleep on q and switches away.
func (k *Kernel) Block(cpu int, q *WaitQueue) {
	s := k.scheds[cpu]
	p := s.curr
	if p == nil {
		return
	}
	p.State = ProcBlocked
	p.wchan = q
	q.waiters = append(q.waiters, p)
	k.Charge(cpu, k.Cost.WaitQueueWork)
	s.switchAway()
}

// Yield voluntarily gives up the CPU.
func (k *Kernel) Yield(cpu int) {
	s := k.scheds[cpu]
	if s.curr != nil {
		p := s.curr
		s.switchAway()
		k.enqueue(p)
	}
}

// CurrentProc returns the process running on logical cpu, if any.
func (k *Kernel) CurrentProc(cpu int) *Proc { return k.scheds[cpu].curr }

// killCurrent terminates the current process with a reason.
func (k *Kernel) killCurrent(cpu int, c *arm.CPU, why string) {
	s := k.scheds[cpu]
	if s.curr == nil {
		return
	}
	s.curr.ExitErr = why
	k.exitCurrent(cpu)
}

// exitCurrent tears down the current process.
func (k *Kernel) exitCurrent(cpu int) {
	s := k.scheds[cpu]
	p := s.curr
	if p == nil {
		return
	}
	if p.State != ProcDead {
		k.dead++
	}
	p.State = ProcDead
	if p.AS != nil {
		k.FreeAddrSpace(p.AS)
	}
	if p.parent != nil && p.parent.waitParent != nil {
		k.Wake(cpu, p.parent.waitParent)
	}
	s.curr = nil
}

// chargeCurr banks the running process's elapsed ticks into its virtual
// runtime, using the cached runqueue clock (no paid counter read).
func (s *cpuSched) chargeCurr() {
	p := s.curr
	if p == nil {
		return
	}
	now := s.cachedClock()
	if now > p.runStart {
		p.VRuntime += now - p.runStart
		p.runStart = now
	}
}

// switchAway deschedules the current process without requeueing it.
func (s *cpuSched) switchAway() {
	s.chargeCurr()
	s.curr = nil
	s.needResched = true
}

// readRunqueueClock models Linux's per-switch clock update: one counter
// read. With virtual timers this is a plain register read; without them it
// traps to the hypervisor and on to user-space emulation — the cause of the
// pipe/ctxsw spikes in Figure 3 (§5.2).
func (k *Kernel) readRunqueueClock(c *arm.CPU) uint64 {
	return k.ReadCounter(c)
}

// contextSwitchTo performs the software context switch to p: bank the old
// register file, install the new one and the address space, update the
// runqueue clock, re-arm the slice timer.
func (s *cpuSched) contextSwitchTo(c *arm.CPU, p *Proc) {
	k := s.k
	s.Switches++
	k.Stats.Switches++
	// Save + restore the general-purpose file (38 registers each way).
	c.Charge(uint64(arm.GPCount()) * (c.Cost.RegSave + c.Cost.RegRestore))
	now := k.readRunqueueClock(c)
	s.noteClock(now, c)
	p.SchedSlices++
	var wait uint64
	if now > p.readyAt {
		wait = now - p.readyAt
		p.RunDelayTicks += wait
	}
	p.runStart = now
	if h := k.OnSchedSwitch; h != nil {
		h(s.cpu, p, wait)
	}
	k.switchAddressSpace(c, p.AS)
	// Arm the preemption tick unless this is the only live process
	// (tickless when truly uncontended, like NO_HZ Linux; but a blocked
	// peer that may wake keeps the tick armed). Under virtualization
	// this is the hot timer-programming path: free with ARM's virtual
	// timers, a trap to root mode on x86, and a round trip to user
	// space without vtimers (§2, §5.2).
	if len(s.runq) > 0 || k.LiveCount() > 1 {
		k.armSliceTimer(s.cpu, c, now)
	}
	c.Charge(k.Cost.SwitchWork)
}

// Step implements arm.Runner: the per-CPU scheduling loop.
func (s *cpuSched) Step(c *arm.CPU) {
	k := s.k
	if s.curr == nil || s.needResched {
		s.pickNext(c)
	}
	p := s.curr
	if p == nil {
		// Idle: wait for an interrupt. Inside a VM this WFI traps to
		// the hypervisor, which blocks the vCPU (§3.2 trap table).
		if k.OnIdle != nil {
			k.OnIdle(s.cpu)
			return
		}
		c.DoWFI()
		return
	}

	// Run one slice of the process body in user mode.
	prevPSR := c.CPSR
	c.SetCPSR(c.CPSR&^arm.PSRModeMask | uint32(arm.ModeUSR))
	p.Steps++
	done := p.Body.Step(k, p, c)
	if c.Runner != arm.Runner(s) {
		// The body handed the CPU to different software entirely — a
		// KVM world switch into a guest. Do not touch the CPSR or the
		// process state: this scheduler resumes when the world switch
		// back restores it as the CPU's runner.
		return
	}
	c.SetCPSR(prevPSR)
	if done && s.curr == p {
		k.exitCurrent(s.cpu)
	}
}

func (s *cpuSched) pickNext(c *arm.CPU) {
	k := s.k
	s.needResched = false
	if s.curr != nil {
		// Preempted while still runnable: bank its runtime and requeue.
		s.chargeCurr()
		old := s.curr
		s.curr = nil
		old.onCPU = false
		old.Preemptions++
		if h := k.OnSchedPreempt; h != nil {
			h(s.cpu, old)
		}
		k.enqueue(old)
	}
	if len(s.runq) == 0 {
		return
	}
	// Fair pick: the smallest virtual runtime wins; ties keep queue
	// (FIFO) order, which preserves the pre-vruntime round-robin when
	// every waiter is even.
	best := 0
	for i := 1; i < len(s.runq); i++ {
		if s.runq[i].VRuntime < s.runq[best].VRuntime {
			best = i
		}
	}
	p := s.runq[best]
	s.runq = append(s.runq[:best], s.runq[best+1:]...)
	p.State = ProcRunning
	p.onCPU = true
	s.curr = p
	s.contextSwitchTo(c, p)
}

// LiveCount reports processes that have not exited (runnable, running or
// blocked): every process ever created less the dead ones, O(1) on the
// context-switch path.
func (k *Kernel) LiveCount() int {
	n := len(k.procs) - k.dead
	if CheckLiveCount != nil {
		CheckLiveCount(n, k.recountLive())
	}
	return n
}

// CheckLiveCount, when non-nil, receives every LiveCount answer with a
// full recount of the process table. Tests set it (before any kernel
// runs) to catch a path that retires a process without counting it; it is
// nil otherwise, and LiveCount then never scans the table.
var CheckLiveCount func(counted, recounted int)

func (k *Kernel) recountLive() int {
	n := 0
	for _, p := range k.procs {
		if p.State != ProcDead {
			n++
		}
	}
	return n
}

// RunnableCount reports queued plus running processes (for idle checks).
func (k *Kernel) RunnableCount() int {
	n := 0
	for _, s := range k.scheds {
		n += len(s.runq)
		if s.curr != nil {
			n++
		}
	}
	return n
}
