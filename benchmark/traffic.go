package main

import (
	"encoding/binary"
	"fmt"

	"kvmarm/internal/dev"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/machine"
	"kvmarm/internal/net"
)

// traffic-steady: the paper's network-bound case at steady state. Per
// backend, three closed-loop client guests — each sends its next request
// only after the reply to the last — drive a server guest through the
// software switch on a 2-CPU board. Request sizes and think times come
// from seeded tables in guest memory. The virtio TX/RX paths, the switch's
// learn/forward/checksum, the host scheduler's slice preemption and the
// MMIO exits of every poll all sit on the request path, and RX DMA writes
// guest memory through the dirty-log-aware host path.

const (
	// Per-VM layout (server and clients each have their own address space).
	trRx     = guestVars          // RX buffer: [len:4][frame]
	trTx     = guestVars + 0x1000 // TX frame; clients: host-written template
	trVars   = guestVars + 0x2000 // server: last id per client; clients: done, retries, stale, failed id
	trSizes  = guestVars + 0x10000
	trThinks = guestVars + 0x20000
	trMem    = 16 << 20

	trOpReq  = 1
	trOpResp = trOpReq + 1
	// trRespLen is the server's reply: header plus the client index.
	trRespLen = net.HeaderSize + 4

	// A client polls (one hypercall exit each) this many times before it
	// counts a retry and resends, doubling up to the cap; after
	// trMaxRetries it records the id it gave up on and powers off. The
	// first budget is far beyond any contended round trip, so on a
	// healthy network nothing retries.
	trTimeout    = 2000
	trTimeoutMax = trTimeout * 16
	trMaxRetries = 8

	// trQuantum is the host scheduler's time slice in timer ticks: short,
	// so a polling client cannot starve the server it shares a CPU with.
	trQuantum = 1000
)

// RX-buffer offsets of frame fields.
const (
	trBufSrcLo = 4 + net.OffSrcLo
	trBufSrcHi = 4 + net.OffSrcHi
	trBufDstLo = 4 + net.OffDstLo
	trBufDstHi = 4 + net.OffDstHi
	trBufOp    = 4 + net.OffOp
	trBufID    = 4 + net.OffID
	trBufBody  = 4 + net.HeaderSize
)

// Request payload sizes (bytes, all inside the 2048-byte RX buffer) and
// think times (spin iterations of three instructions).
var (
	trPayloads = []int{4, 256, 1024}
	trThinkOps = []int{0, 100, 400, 1600}
)

// trafficInputs is everything the seed decides for traffic-steady.
type trafficInputs struct {
	frameLens [trafficClients][]int // per client, per request id: TX frame length
	thinks    [trafficClients][]int // per client, per request id: spin count
	filler    []byte                // request payload bytes
}

func genTrafficInputs(seed uint64, requests int) trafficInputs {
	in := trafficInputs{filler: newRNG(seed, "traffic/filler").bytes(1024)}
	for c := 0; c < trafficClients; c++ {
		// Slot 0 is unused: request ids start at 1.
		lens := newRNG(seed, fmt.Sprint("traffic/sizes/", c)).mix(requests, trPayloads)
		for i := range lens {
			lens[i] += net.HeaderSize
		}
		in.frameLens[c] = append([]int{0}, lens...)
		in.thinks[c] = append([]int{0}, newRNG(seed, fmt.Sprint("traffic/think/", c)).mix(requests, trThinkOps)...)
	}
	return in
}

func (in trafficInputs) bytes() []byte {
	parts := [][]byte{in.filler}
	for c := 0; c < trafficClients; c++ {
		parts = append(parts, words32(in.frameLens[c]), words32(in.thinks[c]))
	}
	return []byte(digest(parts...))
}

// trServerProgram posts the RX buffer, polls its length word (a hypercall
// per poll), and answers each request by swapping the addresses, bumping
// the op and echoing id and client index, recording table[index] = id.
func trServerProgram() []byte {
	return progBytes(isa.NewAsm(guestCode).
		MOV32(isa.R11, machine.VirtNetBase).
		MOV32(isa.R4, trRx).
		MOV32(isa.R5, trTx).
		MOV32(isa.R6, trVars).
		Label("serve").
		MOVW(isa.R0, 0).
		STR(isa.R0, isa.R4, 0).
		STR(isa.R4, isa.R11, dev.VirtRxAddr).
		Label("poll").
		HVC(1).
		LDR(isa.R0, isa.R4, 0).
		CMPI(isa.R0, 0).
		BEQ("poll").
		LDR(isa.R1, isa.R4, trBufSrcLo).
		STR(isa.R1, isa.R5, net.OffDstLo).
		LDR(isa.R1, isa.R4, trBufSrcHi).
		STR(isa.R1, isa.R5, net.OffDstHi).
		LDR(isa.R1, isa.R4, trBufDstLo).
		STR(isa.R1, isa.R5, net.OffSrcLo).
		LDR(isa.R1, isa.R4, trBufDstHi).
		STR(isa.R1, isa.R5, net.OffSrcHi).
		LDR(isa.R1, isa.R4, trBufOp).
		ADDI(isa.R1, isa.R1, 1).
		STR(isa.R1, isa.R5, net.OffOp).
		LDR(isa.R2, isa.R4, trBufID).
		STR(isa.R2, isa.R5, net.OffID).
		LDR(isa.R1, isa.R4, trBufBody).
		STR(isa.R1, isa.R5, net.HeaderSize).
		MOVW(isa.R7, 2).
		LSL(isa.R1, isa.R1, isa.R7).
		STRR(isa.R2, isa.R6, isa.R1). // table[index] = id
		STR(isa.R5, isa.R11, dev.VirtTxAddr).
		MOVW(isa.R0, trRespLen).
		STR(isa.R0, isa.R11, dev.VirtTxLen).
		B("serve").
		MustAssemble())
}

// trClientProgram sends requests 1..n, one at a time: frame length and
// think time of request id come from the tables at trSizes and trThinks.
func trClientProgram(n int) []byte {
	return progBytes(isa.NewAsm(guestCode).
		MOV32(isa.R11, machine.VirtNetBase).
		MOV32(isa.R4, trRx).
		MOV32(isa.R5, trTx).
		MOV32(isa.R6, trVars).
		MOV32(isa.R12, trSizes).
		MOV32(isa.R3, trThinks).
		MOVW(isa.R7, 1). // request id
		Label("fresh").  // new id: reset backoff and retry count
		MOVW(isa.R9, trTimeout).
		MOVW(isa.R10, 0).
		Label("send"). // (re)send the current id
		STR(isa.R7, isa.R5, net.OffID).
		MOVW(isa.R0, 0).
		STR(isa.R0, isa.R4, 0).
		STR(isa.R4, isa.R11, dev.VirtRxAddr).
		STR(isa.R5, isa.R11, dev.VirtTxAddr).
		MOVW(isa.R0, 2).
		LSL(isa.R1, isa.R7, isa.R0). // table offset of this id
		LDRR(isa.R0, isa.R12, isa.R1).
		STR(isa.R0, isa.R11, dev.VirtTxLen).
		MOVW(isa.R8, 0). // poll counter
		Label("poll").
		HVC(1).
		LDR(isa.R0, isa.R4, 0).
		CMPI(isa.R0, 0).
		BNE("got").
		ADDI(isa.R8, isa.R8, 1).
		CMP(isa.R8, isa.R9).
		BNE("poll").
		LDR(isa.R0, isa.R6, 4). // timeout: retries++
		ADDI(isa.R0, isa.R0, 1).
		STR(isa.R0, isa.R6, 4).
		ADDI(isa.R10, isa.R10, 1).
		CMPI(isa.R10, trMaxRetries).
		BEQ("fail").
		ADD(isa.R9, isa.R9, isa.R9). // exponential backoff, clamped
		MOVW(isa.R0, trTimeoutMax).
		CMP(isa.R9, isa.R0).
		BLT("send").
		MOV(isa.R9, isa.R0).
		B("send").
		Label("fail"). // give up: record the id, power off
		STR(isa.R7, isa.R6, 12).
		HVC(powerOff).
		Label("got").
		LDR(isa.R0, isa.R4, trBufOp).
		CMPI(isa.R0, trOpResp).
		BNE("stale").
		LDR(isa.R0, isa.R4, trBufID).
		CMP(isa.R0, isa.R7).
		BEQ("ok").
		Label("stale"). // not our reply: count it, re-arm, keep polling
		LDR(isa.R0, isa.R6, 8).
		ADDI(isa.R0, isa.R0, 1).
		STR(isa.R0, isa.R6, 8).
		MOVW(isa.R0, 0).
		STR(isa.R0, isa.R4, 0).
		STR(isa.R4, isa.R11, dev.VirtRxAddr).
		MOVW(isa.R8, 0).
		B("poll").
		Label("ok").
		STR(isa.R7, isa.R6, 0). // done high-water mark
		LDRR(isa.R2, isa.R3, isa.R1).
		Label("think").
		CMPI(isa.R2, 0).
		BEQ("thought").
		SUBI(isa.R2, isa.R2, 1).
		B("think").
		Label("thought").
		ADDI(isa.R7, isa.R7, 1).
		MOV32(isa.R0, uint32(n+1)).
		CMP(isa.R7, isa.R0).
		BNE("fresh").
		HVC(powerOff).
		MustAssemble())
}

// trafficNet is one booted scenario.
type trafficNet struct {
	env     *hv.Env
	sw      *net.Switch
	server  hv.VM
	clients []hv.VM
	cpus    []hv.VCPU // the clients' vCPUs
	rtts    []uint64  // request round trips, all clients
}

// bootTraffic boots server and clients and wires them through a switch.
// Pages the guests touch are written (so mapped) here, which keeps
// first-touch faults out of the timed region.
func bootTraffic(env *hv.Env, in trafficInputs, requests int) (*trafficNet, error) {
	tn := &trafficNet{env: env, sw: net.NewSwitch(), rtts: make([]uint64, 0, trafficClients*requests)}
	env.Host.SetTimeSlice(trQuantum)
	blank := make([]byte, 0x3000)
	server, _, err := bootRaw(env, rawGuest{
		memBytes: trMem, cpsr: cpsrIRQOpen, hostCPU: 0,
		images: []image{{guestCode, trServerProgram()}, {trRx, blank}},
	})
	if err != nil {
		return nil, err
	}
	tn.server = server
	srvPort, err := tn.sw.AttachVirt("srv", server.Device(dev.VirtNet))
	if err != nil {
		return nil, err
	}
	prog := trClientProgram(requests)
	for i := 0; i < trafficClients; i++ {
		vm, v, err := bootRaw(env, rawGuest{
			memBytes: trMem, cpsr: cpsrIRQOpen, hostCPU: i + 1,
			images: []image{
				{guestCode, prog}, {trRx, blank},
				{trSizes, words32(in.frameLens[i])}, {trThinks, words32(in.thinks[i])},
			},
		})
		if err != nil {
			return nil, err
		}
		nic := vm.Device(dev.VirtNet)
		port, err := tn.sw.AttachVirt(fmt.Sprint("cli", i), nic)
		if err != nil {
			return nil, err
		}
		payload := append(binary.LittleEndian.AppendUint32(nil, uint32(i)), in.filler[4:]...)
		if err := vm.WriteGuestMem(trTx, net.MakeFrame(srvPort.MAC, port.MAC, trOpReq, 0, payload)); err != nil {
			return nil, err
		}
		// Latency taps: the first TX of an id starts its clock, the reply
		// landing in the client's RX buffer stops it. A retry does not
		// restart the clock.
		const unsent, answered = 0, ^uint64(0)
		sent := make([]uint64, requests+1)
		nic.OnTxFrame = func(f []byte) {
			if id := net.ID(f); id < uint32(len(sent)) && sent[id] == unsent {
				sent[id] = env.Board.Now()
			}
		}
		nic.OnRxDeliver = func(f []byte) {
			id := net.ID(f)
			if net.Op(f) != trOpResp || id >= uint32(len(sent)) || sent[id] == unsent || sent[id] == answered {
				return
			}
			tn.rtts = append(tn.rtts, env.Board.Now()-sent[id])
			sent[id] = answered
		}
		tn.clients = append(tn.clients, vm)
		tn.cpus = append(tn.cpus, v)
	}
	return tn, nil
}

// run steps the board until every client has powered off.
func (tn *trafficNet) run(requests int) error {
	step := 0
	done := func() bool {
		if step++; step%256 != 0 {
			return false
		}
		for _, v := range tn.cpus {
			if !shutdown(v) {
				return false
			}
		}
		return true
	}
	if !tn.env.Board.Run(uint64(requests)*trafficClients*40_000+10_000_000, done) {
		return fmt.Errorf("traffic did not complete: %d of %d replies seen", len(tn.rtts), trafficClients*requests)
	}
	return nil
}

// check is the oracle: every client completed every request, the server's
// last-id table agrees, and no frame failed its checksum. Requests a
// client never completed are failed ops.
func (tn *trafficNet) check(rec *recorder, backend string, requests int) error {
	table, err := tn.server.ReadGuestMem(trVars, 4*trafficClients)
	if err != nil {
		return err
	}
	for i, vm := range tn.clients {
		b, err := vm.ReadGuestMem(trVars, 16)
		if err != nil {
			return err
		}
		le := binary.LittleEndian
		done, retries, gaveUp := le.Uint32(b), le.Uint32(b[4:]), le.Uint32(b[12:])
		if int(done) != requests {
			rec.failN(uint64(requests)-uint64(done), "traffic-steady %s: client %d finished %d of %d requests (gave up on id %d)",
				backend, i, done, requests, gaveUp)
		}
		if last := le.Uint32(table[4*i:]); int(last) != requests {
			rec.failf("traffic-steady %s: server's last id for client %d is %d, want %d", backend, i, last, requests)
		}
		rec.counts["traffic.retries"] += float64(retries)
	}
	if tn.sw.DroppedCorrupt != 0 {
		rec.failf("traffic-steady %s: %d frames failed their checksum", backend, tn.sw.DroppedCorrupt)
	}
	return nil
}

// trafficSteady runs the workload on all five backends.
func trafficSteady(rec *recorder, seed uint64, sz sizes) error {
	in := genTrafficInputs(seed, sz.requests)
	for _, name := range sz.backends {
		be, err := lookup(name)
		if err != nil {
			return err
		}
		env, err := rec.newEnv(be, trafficCPUs)
		if err != nil {
			return err
		}
		var tn *trafficNet
		if err := rec.setup("load_image", func() error { tn, err = bootTraffic(env, in, sz.requests); return err }); err != nil {
			return err
		}
		tn.sw.Tracer = rec.tracer
		insns0, start := guestInsns(env), env.Board.Now()
		var cycles uint64
		err = rec.timed(name, func() error {
			err := rec.span("board_run", func() error { return tn.run(sz.requests) })
			cycles = env.Board.Now() - start
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := rec.verify(func() error { return tn.check(rec, name, sz.requests) }); err != nil {
			return err
		}
		row := rec.row(name)
		row.SimCycles, row.Ops = cycles, uint64(trafficClients*sz.requests)
		row.Lat = percentiles(tn.rtts)
		rec.insns += guestInsns(env) - insns0
		rec.addCounts(env)
		rec.counts["net.frames_forwarded"] += float64(tn.sw.Forwarded)
		rec.counts["net.frames_flooded"] += float64(tn.sw.Flooded)
		rec.counts["net.frames_dropped"] += float64(tn.sw.Dropped)
		rec.outputs = append(rec.outputs, binary.LittleEndian.AppendUint64(nil, cycles), table(tn))
	}
	return nil
}

// table is the server's final last-id table, part of the compared output.
func table(tn *trafficNet) []byte {
	b, _ := tn.server.ReadGuestMem(trVars, 4*trafficClients)
	return b
}
