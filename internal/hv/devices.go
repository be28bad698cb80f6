package hv

import (
	"kvmarm/internal/dev"
	"kvmarm/internal/machine"
)

// standardDevices creates the default emulated device set every VM gets —
// virtio-style network, block and console models plus the UART, all
// QEMU-emulated (user space), mirroring the host board's layout so the
// unmodified guest kernel discovers them at the same addresses. raise is
// the backend's virtual-interrupt injection path (virtual distributor or
// APIC); UART output lands in vm.Console. The NIC's frame DMA goes through
// the VM's guest-memory accessors, so TX reads and RX delivery behave like
// any other host-side access (copy-on-write breaks, dirty-log marking).
func standardDevices(b *machine.Board, vm *VMCore, raise func(irq int, level bool)) (net, blk, con *dev.Virt) {
	newDev := func(class dev.VirtClass, irq int, num, den, lat uint64) *dev.Virt {
		return &dev.Virt{
			Class: class, IRQ: irq,
			CyclesPerByteNum: num, CyclesPerByteDen: den, FixedLatency: lat,
			Sched:    b.Schedule,
			Now:      b.Now,
			RaiseIRQ: raise,
			ReadMem:  vm.ReadGuestMem,
			WriteMem: vm.WriteGuestMem,
		}
	}
	// 100 Mb/s NIC at 1.7 GHz: 12.5 MB/s / 1.7e9 cyc/s ≈ 0.0074 B/cyc
	// = 37/5000 bytes per cycle, so 5000/37 cycles per byte.
	net = newDev(dev.VirtNet, machine.IRQNet, 5000, 37, 22_000)
	// SATA SSD ~250 MB/s ≈ 0.147 B/cyc = 147/1000, so 1000/147 cyc/B.
	blk = newDev(dev.VirtBlock, machine.IRQBlk, 1000, 147, 150_000)
	con = newDev(dev.VirtConsole, machine.IRQCon, 1, 1, 6_000)
	vm.AddUserMMIO(machine.VirtNetBase, dev.VirtSize, &VirtMMIO{net})
	vm.AddUserMMIO(machine.VirtBlkBase, dev.VirtSize, &VirtMMIO{blk})
	vm.AddUserMMIO(machine.VirtConBase, dev.VirtSize, &VirtMMIO{con})
	vm.AddUserMMIO(machine.UARTBase, dev.UARTSize, &UARTMMIO{&vm.Console})
	return net, blk, con
}
