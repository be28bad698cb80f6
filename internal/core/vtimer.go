package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/kernel"
	"kvmarm/internal/timer"
)

// Virtual timer multiplexing (§3.6) and counter/timer emulation: the
// family's one copy, used by both world switches.

// emulateTimerReg services a trapped counter or timer access, emulated in
// user space (§5.2: "reading a counter traps to user space without
// vtimers on the ARM platform"). The physical counter and timer trap on
// every ARM board, because CNTHCTL=0 keeps them for the hypervisor; the
// virtual ones trap only on hardware without virtual timers. Both are
// served from the software model of the guest timer, and a programmed
// deadline arms a host soft timer.
func (h *Highvisor) emulateTimerReg(c *arm.CPU, v *VCPU, reg arm.SysReg, rt int, read bool) {
	v.vm.Stats.MMIOUserExits++
	c.Charge(h.kvm.UserTransitionCycles + h.kvm.QEMUWorkCycles/2)
	vt := &v.Ctx.VTimer
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	switch reg {
	case arm.SysCNTVCTLo, arm.SysCNTPCTLo:
		if read {
			v.Ctx.SetReg(rt, uint32(vnow))
		}
		return
	case arm.SysCNTVCTHi, arm.SysCNTPCTHi:
		if read {
			v.Ctx.SetReg(rt, uint32(vnow>>32))
		}
		return
	case arm.SysCNTVCTL, arm.SysCNTPCTL:
		if read {
			val := vt.CTL &^ timer.CTLIStatus
			if vt.CTL&timer.CTLEnable != 0 && vnow >= vt.CVAL {
				val |= timer.CTLIStatus
			}
			v.Ctx.SetReg(rt, val)
			return
		}
		vt.CTL = v.Ctx.Reg(rt) &^ timer.CTLIStatus
	case arm.SysCNTVTVAL, arm.SysCNTPTVAL:
		if read {
			v.Ctx.SetReg(rt, uint32(vt.CVAL-vnow))
			return
		}
		vt.CVAL = vnow + uint64(int64(int32(v.Ctx.Reg(rt))))
	}
	// (Re)arm the host soft timer for the emulated deadline.
	h.cancelSoftTimer(c, v)
	if vt.CTL&timer.CTLEnable != 0 && vt.CTL&timer.CTLIMask == 0 {
		h.armSoftTimer(c, v)
	}
}

// vtimerOnEntry cancels any host soft timer standing in for the vCPU's
// virtual timer and loads the real virtual timer hardware. A timer whose
// expiry was already forwarded as a virtual interrupt is restored masked,
// so its (level) hardware interrupt does not immediately force another
// exit; the guest's handler reprograms it.
func (h *Highvisor) vtimerOnEntry(c *arm.CPU, v *VCPU) {
	if !h.kvm.Board.Cfg.HasVirtTimer {
		// Fully emulated timer: the host soft timer must KEEP running
		// while the guest executes — it is the only thing that can
		// interrupt the vCPU at the emulated deadline.
		return
	}
	h.cancelSoftTimer(c, v)
	st := v.Ctx.VTimer
	if st.CTL&timer.CTLEnable != 0 && st.CTL&timer.CTLIMask == 0 {
		if timer.Count(c.Clock)-st.CNTVOFF >= st.CVAL {
			st.CTL |= timer.CTLIMask
			v.Ctx.VTimer = st
		}
	}
	h.kvm.Board.Timers.RestoreVirt(c.ID, st, c.Clock)
}

// vtimerOnExit checks a descheduled vCPU's virtual timer: if it already
// fired, inject the virtual interrupt now (ACK/EOI of the physical side
// were done by the host IRQ path); if it is armed for the future, program
// a host software timer for the residual (§3.6).
func (h *Highvisor) vtimerOnExit(c *arm.CPU, v *VCPU) {
	vt := v.Ctx.VTimer
	if vt.CTL&timer.CTLEnable == 0 || vt.CTL&timer.CTLIMask != 0 {
		return
	}
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	if vnow >= vt.CVAL {
		// Mask the (already forwarded) expiry so it is not re-injected
		// on every subsequent exit.
		v.Ctx.VTimer.CTL |= timer.CTLIMask
		v.vm.VDist.InjectTimer(c.ID, v.ID)
		return
	}
	if v.softTimerID != 0 {
		return // already armed (emulated-timer configurations)
	}
	h.armSoftTimer(c, v)
}

func (h *Highvisor) armSoftTimer(c *arm.CPU, v *VCPU) {
	vt := v.Ctx.VTimer
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	delay := vt.CVAL - vnow
	hostCPU := c.ID
	v.softTimerCPU = hostCPU
	v.softTimerID = h.kvm.Host.AddTimer(hostCPU, c, delay+1, func(_ *kernel.Kernel, cpu int) {
		v.softTimerID = 0
		v.vm.VDist.InjectTimer(cpu, v.ID)
	})
}

func (h *Highvisor) cancelSoftTimer(c *arm.CPU, v *VCPU) {
	if v.softTimerID != 0 {
		h.kvm.Host.CancelTimer(v.softTimerCPU, c, v.softTimerID)
		v.softTimerID = 0
	}
}
