package mem

import (
	"testing"
	"testing/quick"
)

func TestBasicReadWrite(t *testing.T) {
	p := New(0x8000_0000, 1<<20)
	if err := p.Write32(0x8000_0010, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := p.Read32(0x8000_0010)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("read %#x err=%v", v, err)
	}
	// Little-endian byte order.
	b, _ := p.Read8(0x8000_0010)
	if b != 0xEF {
		t.Fatalf("byte 0 = %#x, want 0xef (little endian)", b)
	}
}

func TestWidths(t *testing.T) {
	p := New(0, 4096)
	if err := p.Write64(8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	lo, _ := p.Read32(8)
	hi, _ := p.Read32(12)
	if lo != 0x55667788 || hi != 0x11223344 {
		t.Fatalf("lo=%#x hi=%#x", lo, hi)
	}
}

func TestOutOfRange(t *testing.T) {
	p := New(0x8000_0000, 4096)
	if _, err := p.Read32(0x7FFF_FFFF); err == nil {
		t.Error("below base must fail")
	}
	if _, err := p.Read32(0x8000_0FFD); err == nil {
		t.Error("straddling the top must fail")
	}
	if err := p.Write8(0x8000_1000, 1); err == nil {
		t.Error("one past the end must fail")
	}
	if _, err := p.Read64(0xFFFF_FFFF_FFFF_FFFC); err == nil {
		t.Error("wrapping address must fail")
	}
}

func TestBytesAndZero(t *testing.T) {
	p := New(0, 4096)
	src := []byte{1, 2, 3, 4, 5}
	if err := p.WriteBytes(100, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 5)
	if err := p.ReadBytes(100, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst=%v", dst)
		}
	}
	if err := p.Zero(100, 5); err != nil {
		t.Fatal(err)
	}
	_ = p.ReadBytes(100, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatalf("not zeroed: %v", dst)
		}
	}
}

func TestPropertyRoundTrip64(t *testing.T) {
	p := New(0x8000_0000, 1<<20)
	f := func(off uint32, v uint64) bool {
		addr := 0x8000_0000 + uint64(off%(1<<20-8))
		if err := p.Write64(addr, v); err != nil {
			return false
		}
		got, err := p.Read64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCopy(t *testing.T) {
	p := New(0x1000, 4096)
	var writes [][2]uint64
	p.OnWrite = func(pa, n uint64) { writes = append(writes, [2]uint64{pa, n}) }
	if err := p.WriteBytes(0x1000, []byte{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	writes = nil
	if err := p.Copy(0x1800, 0x1000, 6); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	_ = p.ReadBytes(0x1800, got)
	if string(got) != "\x01\x02\x03\x04\x05\x06" {
		t.Fatalf("copy = %v", got)
	}
	if len(writes) != 1 || writes[0] != [2]uint64{0x1800, 6} {
		t.Fatalf("OnWrite calls = %v, want one for [0x1800,+6)", writes)
	}
	// Overlapping ranges copy as memmove.
	if err := p.Copy(0x1002, 0x1000, 4); err != nil {
		t.Fatal(err)
	}
	_ = p.ReadBytes(0x1000, got)
	if string(got) != "\x01\x02\x01\x02\x03\x04" {
		t.Fatalf("overlapping copy = %v", got)
	}
	// Either range outside RAM fails without writing anything.
	writes = nil
	if err := p.Copy(0x1FFC, 0x1000, 8); err == nil {
		t.Error("destination straddling the top must fail")
	}
	if err := p.Copy(0x1000, 0x0FF8, 16); err == nil {
		t.Error("source below base must fail")
	}
	if len(writes) != 0 {
		t.Fatalf("failed copies reported writes: %v", writes)
	}
}
