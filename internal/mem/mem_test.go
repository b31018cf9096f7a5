package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("Load(0x1000) = %d, want 42", got)
	}
}

func TestLoadDefaultZero(t *testing.T) {
	m := New()
	if got := m.Load(0xDEADBEE8); got != 0 {
		t.Fatalf("fresh memory Load = %d, want 0", got)
	}
}

func TestWordAlignmentIgnoresLowBits(t *testing.T) {
	m := New()
	m.Store(0x2003, 7) // unaligned store hits word 0x2000
	if got := m.Load(0x2000); got != 7 {
		t.Fatalf("Load(0x2000) = %d, want 7", got)
	}
	if got := m.Load(0x2007); got != 7 {
		t.Fatalf("Load(0x2007) = %d, want 7 (same word)", got)
	}
}

func TestAdjacentWordsIndependent(t *testing.T) {
	m := New()
	m.Store(0x3000, 1)
	m.Store(0x3008, 2)
	if m.Load(0x3000) != 1 || m.Load(0x3008) != 2 {
		t.Fatalf("adjacent words interfere: %d %d", m.Load(0x3000), m.Load(0x3008))
	}
}

func TestCrossPageBoundary(t *testing.T) {
	m := New()
	// Words straddling a 4 KB page boundary land on different pages.
	m.Store(0xFF8, 10)
	m.Store(0x1000, 20)
	if m.Load(0xFF8) != 10 || m.Load(0x1000) != 20 {
		t.Fatal("page boundary handling broken")
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0},
		{63, 0},
		{64, 64},
		{0x12345, 0x12340},
	}
	for _, c := range cases {
		if got := LineOf(c.in); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestLineOfProperty(t *testing.T) {
	f := func(a uint64) bool {
		l := LineOf(Addr(a))
		return uint64(l)%LineSize == 0 && uint64(l) <= a && a-uint64(l) < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryStoreLoadProperty(t *testing.T) {
	m := New()
	f := func(a uint64, v uint64) bool {
		addr := Addr(a)
		m.Store(addr, v)
		return m.Load(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorBasics(t *testing.T) {
	al := NewAllocator(0x10000, 1<<20)
	a := al.AllocWords(4)
	b := al.AllocWords(4)
	if a == 0 || b == 0 {
		t.Fatal("allocator returned nil address")
	}
	if b < a+4*WordSize {
		t.Fatalf("allocations overlap: a=%#x b=%#x", a, b)
	}
}

func TestAllocatorLineAlignment(t *testing.T) {
	al := NewAllocator(0x10000, 1<<20)
	al.AllocWords(3) // misalign the bump pointer
	l := al.AllocLines(2)
	if uint64(l)%LineSize != 0 {
		t.Fatalf("AllocLines not line-aligned: %#x", l)
	}
}

func TestAllocatorObjectPolicy(t *testing.T) {
	al := NewAllocator(0x10000, 1<<20)
	al.AllocWords(1)
	big := al.AllocObject(8) // 64 bytes: must start a fresh line
	if uint64(big)%LineSize != 0 {
		t.Fatalf("large object not line-aligned: %#x", big)
	}
	small1 := al.AllocObject(2)
	small2 := al.AllocObject(2)
	if LineOf(small1) != LineOf(small2) {
		t.Fatal("small objects should pack into a line")
	}
}

func TestAllocatorNoOverlapProperty(t *testing.T) {
	al := NewAllocator(0x10000, 1<<22)
	type span struct{ lo, hi uint64 }
	var spans []span
	f := func(nWords uint8) bool {
		n := int(nWords%32) + 1
		a := al.AllocObject(n)
		lo, hi := uint64(a), uint64(a)+uint64(n)*WordSize
		for _, s := range spans {
			if lo < s.hi && s.lo < hi {
				return false
			}
		}
		spans = append(spans, span{lo, hi})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorExhaustionPanics(t *testing.T) {
	al := NewAllocator(0x10000, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	al.AllocWords(1000)
}

func TestAllocatorUsedRemaining(t *testing.T) {
	al := NewAllocator(0x10000, 1<<12)
	al.AllocWords(8)
	if al.Used() != 64 {
		t.Fatalf("Used = %d, want 64", al.Used())
	}
	if al.Remaining() != (1<<12)-64 {
		t.Fatalf("Remaining = %d", al.Remaining())
	}
}

func TestNewAllocatorRejectsBadBase(t *testing.T) {
	for _, base := range []Addr{0, 7, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAllocator(%#x) should panic", base)
				}
			}()
			NewAllocator(base, 1024)
		}()
	}
}

// pageAddr returns the address of word w on simulated page number p.
func pageAddr(p, w uint64) Addr { return Addr(p<<pageBits | w*WordSize) }

// TestPageCacheSlotCollision alternates between two pages that share a
// page-cache slot (page numbers k and k+pageSlots): each access evicts
// the other's entry, and neither may ever see the other's words.
func TestPageCacheSlotCollision(t *testing.T) {
	m := New()
	const k = 5
	for i := uint64(0); i < 2*pageWords; i++ {
		m.Store(pageAddr(k, i%pageWords), i)
		m.Store(pageAddr(k+pageSlots, i%pageWords), ^i)
	}
	for w := uint64(0); w < pageWords; w++ {
		last := pageWords + w // the second pass wrote every word last
		if got := m.Load(pageAddr(k, w)); got != last {
			t.Fatalf("page %d word %d = %d, want %d", k, w, got, last)
		}
		if got := m.Load(pageAddr(k+pageSlots, w)); got != ^last {
			t.Fatalf("page %d word %d = %#x, want %#x", k+pageSlots, w, got, ^last)
		}
	}
	if m.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2", m.Footprint())
	}
}

// TestPageCacheManyLivePages keeps more pages live than the cache has
// slots, touched in a scattered order, and reads every word back.
func TestPageCacheManyLivePages(t *testing.T) {
	const pages = 5*pageSlots + 3
	m := New()
	val := func(p, w uint64) uint64 { return p*1_000_003 + w + 1 }
	for w := uint64(0); w < pageWords; w += 7 {
		for i := uint64(0); i < pages; i++ {
			p := i * 37 % pages // a permutation: 37 and pages are coprime
			m.Store(pageAddr(p, w), val(p, w))
		}
	}
	if m.Footprint() != pages {
		t.Fatalf("footprint = %d, want %d", m.Footprint(), pages)
	}
	for p := uint64(pages); p > 0; p-- {
		for w := uint64(0); w < pageWords; w++ {
			want := uint64(0)
			if w%7 == 0 {
				want = val(p-1, w)
			}
			if got := m.Load(pageAddr(p-1, w)); got != want {
				t.Fatalf("page %d word %d = %d, want %d", p-1, w, got, want)
			}
		}
	}
}

// TestSnapshotDiffWithWarmCache snapshots a memory whose page cache is
// warm: later writes through either copy's cache must not reach the
// other, and Diff must report exactly the words written since.
func TestSnapshotDiffWithWarmCache(t *testing.T) {
	m := New()
	for p := uint64(0); p < 2*pageSlots; p++ {
		m.Store(pageAddr(p, 0), p+1)
	}
	s := m.Snapshot()
	m.Store(pageAddr(3, 0), 99)            // cached page
	m.Store(pageAddr(3+pageSlots, 1), 77)  // cached page, new word
	m.Store(pageAddr(10*pageSlots, 1), 55) // new page
	s.Store(pageAddr(4+pageSlots, 0), 66)  // snapshot side
	if got := s.Load(pageAddr(3, 0)); got != 4 {
		t.Fatalf("snapshot saw a later write: %d, want 4", got)
	}
	if got := m.Load(pageAddr(4+pageSlots, 0)); got != pageSlots+5 {
		t.Fatalf("memory saw a snapshot write: %d, want %d", got, pageSlots+5)
	}
	want := []Addr{pageAddr(3, 0), pageAddr(3+pageSlots, 1), pageAddr(4+pageSlots, 0), pageAddr(10*pageSlots, 1)}
	got := m.Diff(s, 10)
	if len(got) != len(want) {
		t.Fatalf("Diff = %#x, want %#x", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Diff = %#x, want %#x", got, want)
		}
	}
}
