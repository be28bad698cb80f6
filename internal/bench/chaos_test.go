// Chaos matrix conformance: every fault family on every backend must
// either fully recover — traffic completes and the final server state
// equals a fault-free twin — or surface typed evidence (a failed-id word,
// a detected corruption, a bus-error event, a re-forked clone). Never a
// hang, never silent corruption. The fuzzer drives random fault
// placements through the same invariant.
package bench

import (
	"sync"
	"testing"

	_ "kvmarm" // registers the ARM and x86 backends
	"kvmarm/internal/dev"
	"kvmarm/internal/fault"
	"kvmarm/internal/hv"
)

// Reduced load for the matrix: enough traffic to straddle the injection
// point and exercise retries, small enough to keep 5 backends x 8
// families fast.
const (
	chTestClients  = 2
	chTestRequests = 8
)

func TestChaosMatrix(t *testing.T) {
	for _, be := range hv.Backends() {
		be := be
		t.Run(be.Name, func(t *testing.T) {
			var twin []uint32
			for _, fam := range chaosFamilies() {
				fam := fam
				t.Run(fam.name, func(t *testing.T) {
					cn, err := chaosBoot(be, chTestClients, chTestRequests)
					if err != nil {
						t.Fatal(err)
					}
					row, err := runChaos(cn, fam)
					if err != nil {
						t.Fatalf("chaos run failed (hang or injection error): %v", err)
					}
					if fam.name == "baseline" {
						if twin, err = trServerTable(cn.server(), chTestClients); err != nil {
							t.Fatal(err)
						}
						for i, id := range twin {
							if id != chTestRequests {
								t.Fatalf("twin table[%d] = %d, want %d", i, id, chTestRequests)
							}
						}
					}
					if !chaosStateOK(cn, twin) {
						for i, c := range cn.clients {
							d, r, s, f := trClientCounters(c)
							t.Logf("client %d: done=%d retries=%d stale=%d failed=%d", i, d, r, s, f)
						}
						table, _ := trServerTable(cn.server(), chTestClients)
						t.Fatalf("final state differs from fault-free twin: table=%v twin=%v (recoveries=%d)",
							table, twin, row.Recoveries)
					}

					// Per-family evidence: the fault must have been visible to
					// the recovery layer that absorbed it.
					switch fam.name {
					case "baseline":
						if row.Retries != 0 || row.Recoveries != 0 {
							t.Fatalf("fault-free run saw recovery activity: retries=%d recoveries=%d",
								row.Retries, row.Recoveries)
						}
					case "dev/mmio":
						if row.BusErrors == 0 {
							t.Fatal("injected MMIO error produced no guest bus-error event")
						}
						if row.Recoveries == 0 {
							t.Fatal("dead server clone was not re-forked")
						}
						if row.RecoveryCycles == 0 {
							t.Fatal("recovery latency not recorded")
						}
					case "dev/bringup":
						// The typed CreateVM error is asserted inside the
						// inject hook; running traffic must be untouched.
						if row.Recoveries != 0 {
							t.Fatalf("bring-up fault re-forked a healthy clone (%d recoveries)", row.Recoveries)
						}
					case "dev/completion":
						if row.Recoveries == 0 && row.Retries == 0 {
							t.Fatal("swallowed completion left no retry and no re-fork")
						}
					case "net/drop":
						if row.InjectedDrops == 0 {
							t.Fatal("drop fault never fired")
						}
						if row.Retries == 0 {
							t.Fatal("dropped frames caused no client retries")
						}
					case "net/corrupt":
						if row.CorruptDetected == 0 {
							t.Fatal("corruption fault never fired (or went undetected)")
						}
					case "net/delay":
						if len(cn.sw.Fault.Injected()) == 0 {
							t.Fatal("delay fault never fired")
						}
						if row.P99 < chDelayCycles {
							t.Fatalf("p99 %d below the injected delay %d", row.P99, chDelayCycles)
						}
					case "net/port-down":
						if row.PortDownDrops == 0 {
							t.Fatal("port outage dropped no frames")
						}
						if row.Retries == 0 {
							t.Fatal("port outage caused no client retries")
						}
					}
				})
			}
		})
	}
}

// fuzzTwin computes the fault-free twin table for the fuzz load once.
var fuzzTwin struct {
	once  sync.Once
	table []uint32
	err   error
}

func fuzzTwinTable() ([]uint32, error) {
	fuzzTwin.once.Do(func() {
		cn, err := chaosBoot(hv.Backends()[0], 1, 4)
		if err != nil {
			fuzzTwin.err = err
			return
		}
		if _, err := runChaos(cn, chaosFamily{name: "twin"}); err != nil {
			fuzzTwin.err = err
			return
		}
		fuzzTwin.table, fuzzTwin.err = trServerTable(cn.server(), 1)
	})
	return fuzzTwin.table, fuzzTwin.err
}

// FuzzChaosTraffic throws arbitrary fault placements (point, kind,
// trigger, seed) at the smallest traffic scenario and holds the chaos
// invariant: the run never hangs, and it either completes with state
// equal to the fault-free twin or leaves typed evidence of the fault.
func FuzzChaosTraffic(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0), uint16(1))
	f.Add(uint8(3), uint8(2), uint8(0), uint8(8), uint16(7))  // probabilistic frame drop
	f.Add(uint8(3), uint8(3), uint8(1), uint8(0), uint16(9))  // corrupt every frame
	f.Add(uint8(1), uint8(2), uint8(1), uint8(0), uint16(3))  // swallow every completion
	f.Add(uint8(0), uint8(0), uint8(2), uint8(0), uint16(11)) // MMIO error on 2nd access
	f.Add(uint8(3), uint8(1), uint8(0), uint8(3), uint16(5))  // frame delays
	f.Fuzz(func(t *testing.T, pointSel, kindSel, nth, probDen uint8, seed uint16) {
		twin, err := fuzzTwinTable()
		if err != nil {
			t.Fatalf("twin run failed: %v", err)
		}
		cn, err := chaosBoot(hv.Backends()[0], 1, 4)
		if err != nil {
			t.Fatal(err)
		}

		points := fault.ChaosPoints()
		pt := points[int(pointSel)%len(points)]
		kinds := []fault.Kind{fault.KindError, fault.KindDeviceFail, fault.KindDrop, fault.KindCorrupt}
		kind := kinds[int(kindSel)%len(kinds)]
		var trig fault.Trigger
		if nth > 0 {
			trig = fault.EveryNth(uint64(nth))
		} else {
			trig = fault.WithProb(1, 1+uint64(probDen)%16)
		}

		inject := func(cn *chaosNet) error {
			pl := fault.New(uint64(seed))
			if pt == fault.PtNetFrame {
				// Wire faults live on the switch's plane; a delay rides
				// along when the trigger is probabilistic.
				cn.sw.Fault.Arm(pt, trig, kind)
				if nth == 0 {
					cn.sw.Fault.ArmDelay(pt, trig, chDelayCycles)
				}
				return nil
			}
			pl.Arm(pt, trig, kind)
			cn.server().Device(dev.VirtNet).Fault = pl
			return nil
		}
		row, err := runChaos(cn, chaosFamily{name: "fuzz", inject: inject})
		if err != nil {
			t.Fatalf("chaos run hung or errored under pt=%s kind=%d trig=%+v: %v", pt, kind, trig, err)
		}

		complete := true
		var failed uint32
		for _, c := range cn.clients {
			d, _, _, fd := trClientCounters(c)
			if d != 4 || fd != 0 {
				complete = false
			}
			failed += fd
		}
		if complete {
			// Completion implies correctness: the served table must equal
			// the fault-free twin — a fault may cost latency and retries
			// but never a wrong answer.
			table, err := trServerTable(cn.server(), 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range table {
				if table[i] != twin[i] {
					t.Fatalf("silent corruption: table=%v twin=%v", table, twin)
				}
			}
			return
		}
		// Incomplete runs must leave typed evidence somewhere: a client
		// gave up with a recorded id, a clone was re-forked, or the
		// fault's loss was counted.
		if failed == 0 && row.Recoveries == 0 && row.CorruptDetected == 0 &&
			row.InjectedDrops == 0 && row.BusErrors == 0 {
			t.Fatalf("incomplete run with no typed evidence: %+v", row)
		}
	})
}
