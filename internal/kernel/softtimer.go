package kernel

import (
	"sort"

	"kvmarm/internal/arm"
)

// softTimers is the kernel's per-CPU high-resolution timer list (the
// hrtimer analogue). KVM/ARM's highvisor programs one of these when a vCPU
// with a live virtual timer is descheduled (§3.6: "leverages existing OS
// functionality to program a software timer at the time when the virtual
// timer would have otherwise fired").
type softTimers struct {
	entries []softTimer
	// sliceDeadline is the scheduler tick deadline in counter ticks.
	sliceDeadline uint64
}

type softTimer struct {
	at uint64 // absolute counter ticks
	fn func(k *Kernel, cpu int)
	id uint64
}

func newSoftTimers() *softTimers { return &softTimers{} }

// AddTimer schedules fn to run in interrupt context on cpu after delay
// counter ticks; it returns an ID for cancellation.
func (k *Kernel) AddTimer(cpu int, c *arm.CPU, delay uint64, fn func(k *Kernel, cpu int)) uint64 {
	k.Stats.SoftTimers++
	st := k.timers[cpu]
	k.nextTimerID++
	now := k.ReadCounter(c)
	st.entries = append(st.entries, softTimer{at: now + delay, fn: fn, id: k.nextTimerID})
	sort.Slice(st.entries, func(i, j int) bool { return st.entries[i].at < st.entries[j].at })
	k.reprogram(cpu, c)
	return k.nextTimerID
}

// CancelTimer removes a pending soft timer.
func (k *Kernel) CancelTimer(cpu int, c *arm.CPU, id uint64) {
	st := k.timers[cpu]
	for i := range st.entries {
		if st.entries[i].id == id {
			st.entries = append(st.entries[:i], st.entries[i+1:]...)
			break
		}
	}
	k.reprogram(cpu, c)
}

// armSliceTimer arms the scheduler tick for the current time slice, using
// the runqueue clock already read by the context switch (one counter read
// per switch, as in Linux).
func (k *Kernel) armSliceTimer(cpu int, c *arm.CPU, now uint64) {
	st := k.timers[cpu]
	st.sliceDeadline = now + uint64(k.scheds[cpu].sliceTicks)
	k.reprogramAt(cpu, c, now)
}

// reprogram arms the hardware timer for the earliest pending deadline.
func (k *Kernel) reprogram(cpu int, c *arm.CPU) {
	k.reprogramAt(cpu, c, k.ReadCounter(c))
}

func (k *Kernel) reprogramAt(cpu int, c *arm.CPU, now uint64) {
	st := k.timers[cpu]
	best := st.sliceDeadline
	if len(st.entries) > 0 && (best == 0 || st.entries[0].at < best) {
		best = st.entries[0].at
	}
	if best == 0 {
		k.disarmTimer(c)
		return
	}
	k.armTimerForAt(c, best, now)
}

// timerInterrupt runs expired soft timers and the scheduler tick.
func (k *Kernel) timerInterrupt(cpu int, c *arm.CPU) {
	st := k.timers[cpu]
	now := k.ReadCounter(c)
	for len(st.entries) > 0 && st.entries[0].at <= now {
		e := st.entries[0]
		st.entries = st.entries[1:]
		e.fn(k, cpu)
	}
	if st.sliceDeadline != 0 && now >= st.sliceDeadline {
		st.sliceDeadline = 0
		k.scheds[cpu].needResched = true
	}
	k.reprogram(cpu, c)
}
