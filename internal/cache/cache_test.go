package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"safetynet/internal/config"
	"safetynet/internal/msg"
	"safetynet/internal/sim"
)

func TestLookupMissOnEmpty(t *testing.T) {
	a := NewArray(4, 2, 64)
	if a.Lookup(0x1000) != nil {
		t.Fatal("empty array must miss")
	}
}

func TestInstallThenLookup(t *testing.T) {
	a := NewArray(4, 2, 64)
	v := a.Victim(0x1000, nil)
	if v == nil {
		t.Fatal("empty set must offer a victim")
	}
	a.Install(v, 0x1000, Modified, 3, 42)
	l := a.Lookup(0x1000)
	if l == nil || l.State != Modified || l.CN != 3 || l.Data != 42 {
		t.Fatalf("lookup after install = %+v", l)
	}
}

func TestSetIndexSeparatesConflicts(t *testing.T) {
	a := NewArray(4, 2, 64)
	// Addresses 0 and 64 land in different sets; 0 and 4*64 collide.
	a.Install(a.Victim(0, nil), 0, Shared, 0, 1)
	a.Install(a.Victim(64, nil), 64, Shared, 0, 2)
	if a.Lookup(0) == nil || a.Lookup(64) == nil {
		t.Fatal("different sets must coexist")
	}
	// Fill the set of address 0 (ways=2): 0, 256; then 512 evicts LRU.
	a.Install(a.Victim(256, nil), 256, Shared, 0, 3)
	a.Touch(a.Lookup(0)) // make 256 the LRU
	v := a.Victim(512, nil)
	if v.Addr != 256 {
		t.Fatalf("victim = %#x, want 256 (LRU)", v.Addr)
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	a := NewArray(1, 4, 64)
	a.Install(a.Victim(0, nil), 0, Shared, 0, 0)
	v := a.Victim(64, nil)
	if v.State != Invalid {
		t.Fatal("victim must prefer an invalid frame")
	}
}

// TestLineIs32Bytes pins the frame layout: the line arrays are the
// largest structure of a run, so a field that grows Line grows every run's
// memory by half.
func TestLineIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 32", got)
	}
}

func TestVictimRespectsEvictable(t *testing.T) {
	a := NewArray(1, 2, 64)
	a.Install(a.Victim(0, nil), 0, Modified, 0, 0)
	a.Install(a.Victim(64, nil), 64, Modified, 0, 0)
	v := a.Victim(128, func(l *Line) bool { return l.Addr != 0 })
	if v == nil || v.Addr != 64 {
		t.Fatalf("victim = %+v, want addr 64", v)
	}
	v = a.Victim(128, func(l *Line) bool { return false })
	if v != nil {
		t.Fatal("no evictable line must yield nil")
	}
}

func TestInvalidate(t *testing.T) {
	a := NewArray(4, 2, 64)
	a.Install(a.Victim(0, nil), 0, Owned, 2, 9)
	a.Invalidate(0)
	if a.Lookup(0) != nil {
		t.Fatal("invalidated line must not be found")
	}
	a.Invalidate(0) // idempotent
}

func TestInvalidateAllAndCount(t *testing.T) {
	a := NewArray(4, 2, 64)
	for i := 0; i < 6; i++ {
		addr := uint64(i * 64)
		a.Install(a.Victim(addr, nil), addr, Shared, 0, 0)
	}
	if got := a.CountValid(); got != 6 {
		t.Fatalf("CountValid = %d, want 6", got)
	}
	a.InvalidateAll()
	if got := a.CountValid(); got != 0 {
		t.Fatalf("CountValid after flash-clear = %d", got)
	}
}

func TestForEachValid(t *testing.T) {
	a := NewArray(4, 2, 64)
	want := map[uint64]bool{0: true, 64: true, 128: true}
	for addr := range want {
		a.Install(a.Victim(addr, nil), addr, Modified, 1, addr)
	}
	got := map[uint64]bool{}
	a.ForEachValid(func(l *Line) { got[l.Addr] = true })
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
}

func TestStateProperties(t *testing.T) {
	if !Modified.IsOwner() || !Owned.IsOwner() {
		t.Error("M and O are owner states")
	}
	if Shared.IsOwner() || Invalid.IsOwner() {
		t.Error("S and I are not owner states")
	}
	for _, s := range []State{Invalid, Shared, Owned, Modified} {
		if s.String() == "" {
			t.Error("states must render")
		}
	}
}

func TestBandwidthTotal(t *testing.T) {
	b := Bandwidth{HitCycles: 1, FillCycles: 2, CoherenceCycles: 3, LoggingCycles: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %d, want 10", b.Total())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewArray(0, 2, 64) },
		func() { NewArray(2, 0, 64) },
		func() { NewArray(2, 2, 48) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry must panic")
				}
			}()
			f()
		}()
	}
}

// Property: installing k distinct addresses that map to one set never
// exceeds the set's capacity, and the most recently touched lines survive.
func TestLRUProperty(t *testing.T) {
	f := func(accesses []uint8) bool {
		a := NewArray(1, 4, 64)
		for _, x := range accesses {
			addr := uint64(x%16) * 64
			if l := a.Lookup(addr); l != nil {
				a.Touch(l)
				continue
			}
			v := a.Victim(addr, nil)
			if v == nil {
				return false
			}
			a.Install(v, addr, Shared, 0, 0)
		}
		return a.CountValid() <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a line's CN survives Install/Lookup round trips.
func TestCNRoundTrip(t *testing.T) {
	f := func(cn uint32, data uint64) bool {
		a := NewArray(2, 2, 64)
		a.Install(a.Victim(0, nil), 0, Owned, msg.CN(cn), data)
		l := a.Lookup(0)
		return l != nil && l.CN == msg.CN(cn) && l.Data == data
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkArrayLookup measures the per-reference hit path of the cache
// layer alone: one Lookup per reference into one of 16 arrays at the
// default L2 geometry, a Touch on a hit, and a Victim plus Install on a
// miss. The address mix is oltp-like: about 95% of references go to a
// small hot set, 4% to a warm set, and 1% are uniform over 88k blocks.
func BenchmarkArrayLookup(b *testing.B) {
	p := config.Default()
	const nodes, hot, warm, all = 16, 512, 8 << 10, 88 << 10
	arrays := make([]*Array, nodes)
	for i := range arrays {
		arrays[i] = NewArray(p.L2Sets(), p.L2Ways, p.BlockBytes)
	}
	r := sim.NewRand(1)
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		var blk int
		switch x := r.Intn(100); {
		case x < 95:
			blk = r.Intn(hot)
		case x < 99:
			blk = r.Intn(warm)
		default:
			blk = r.Intn(all)
		}
		addrs[i] = uint64(blk * p.BlockBytes)
	}
	ref := func(i int) {
		a, addr := arrays[i%nodes], addrs[i%len(addrs)]
		if l := a.Lookup(addr); l != nil {
			a.Touch(l)
			return
		}
		a.Install(a.Victim(addr, nil), addr, Shared, msg.Null, 0)
	}
	for i := 0; i < len(addrs)*nodes; i++ { // warm every array
		ref(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref(i)
	}
}
