package prefetch

import (
	"math/rand"
	"testing"
)

func TestRUTTrackDistinctLines(t *testing.T) {
	r := NewRUT(4)
	if u := r.Track(0, 9, 3); u != 1 {
		t.Fatalf("first track util = %d, want 1", u)
	}
	if u := r.Track(0, 9, 3); u != 1 {
		t.Fatalf("repeat line util = %d, want 1 (distinct lines)", u)
	}
	if u := r.Track(0, 9, 5); u != 2 {
		t.Fatalf("second line util = %d, want 2", u)
	}
	row, ok := r.Row(0)
	if !ok || row != 9 {
		t.Fatalf("Row(0) = %d,%v", row, ok)
	}
	if r.Util(0) != 2 {
		t.Fatalf("Util(0) = %d", r.Util(0))
	}
}

func TestRUTReplaceOnDifferentRow(t *testing.T) {
	r := NewRUT(2)
	r.Track(1, 5, 0)
	r.Track(1, 5, 1)
	if u := r.Track(1, 6, 0); u != 1 {
		t.Fatalf("util after row change = %d, want 1", u)
	}
	row, _ := r.Row(1)
	if row != 6 {
		t.Fatalf("tracked row = %d, want 6", row)
	}
}

func TestRUTClearAndDisplace(t *testing.T) {
	r := NewRUT(2)
	r.Track(0, 3, 0)
	r.Clear(0)
	if _, ok := r.Row(0); ok {
		t.Fatal("entry survived Clear")
	}
	if _, _, ok := r.Displace(0); ok {
		t.Fatal("Displace on empty entry returned ok")
	}
	r.Track(0, 4, 1)
	r.Track(0, 4, 3)
	row, touched, ok := r.Displace(0)
	if !ok || row != 4 {
		t.Fatalf("Displace = %d,%v", row, ok)
	}
	if touched != (1<<1 | 1<<3) {
		t.Fatalf("displaced bitmap = %#x, want lines 1 and 3", touched)
	}
	if _, ok := r.Row(0); ok {
		t.Fatal("entry survived Displace")
	}
}

func TestRUTBanksIndependent(t *testing.T) {
	r := NewRUT(3)
	r.Track(0, 1, 0)
	r.Track(1, 2, 0)
	r.Track(2, 3, 0)
	for bank, want := range []int64{1, 2, 3} {
		if row, ok := r.Row(bank); !ok || row != want {
			t.Fatalf("bank %d tracks %d, want %d", bank, row, want)
		}
	}
}

func TestNewRUTValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRUT(0) did not panic")
		}
	}()
	NewRUT(0)
}

func TestCTInsertContainsRemove(t *testing.T) {
	ct := NewCT(4)
	if ct.Capacity() != 4 {
		t.Fatalf("capacity = %d", ct.Capacity())
	}
	ct.Insert(0, 10, 0)
	ct.Insert(1, 20, 0)
	if !ct.Contains(0, 10) || !ct.Contains(1, 20) || ct.Contains(0, 20) {
		t.Fatal("containment wrong")
	}
	if _, ok := ct.Remove(0, 10); !ok {
		t.Fatal("remove of resident entry failed")
	}
	if _, ok := ct.Remove(0, 10); ok {
		t.Fatal("double remove succeeded")
	}
	if ct.Len() != 1 {
		t.Fatalf("len = %d, want 1", ct.Len())
	}
}

func TestCTLRUEviction(t *testing.T) {
	ct := NewCT(2)
	ct.Insert(0, 1, 0)
	ct.Insert(0, 2, 0)
	ct.Insert(0, 1, 0) // refresh 1 -> LRU is now 2
	ct.Insert(0, 3, 0) // evicts 2
	if ct.Contains(0, 2) {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if !ct.Contains(0, 1) || !ct.Contains(0, 3) {
		t.Fatal("resident set wrong after LRU eviction")
	}
	if ct.Len() != 2 {
		t.Fatalf("len = %d, want 2", ct.Len())
	}
}

func TestCTDuplicateInsertDoesNotGrow(t *testing.T) {
	ct := NewCT(4)
	for i := 0; i < 10; i++ {
		ct.Insert(2, 7, 0)
	}
	if ct.Len() != 1 {
		t.Fatalf("duplicate inserts grew table to %d", ct.Len())
	}
}

func TestCTNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ct := NewCT(8)
	for i := 0; i < 10000; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			ct.Insert(rng.Intn(16), int64(rng.Intn(100)), 0)
		case 2:
			ct.Remove(rng.Intn(16), int64(rng.Intn(100)))
		}
		if ct.Len() > ct.Capacity() {
			t.Fatalf("CT overflowed: %d > %d", ct.Len(), ct.Capacity())
		}
	}
}

func TestNewCTValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCT(0) did not panic")
		}
	}()
	NewCT(0)
}

func TestCTStoresAndMergesBitmaps(t *testing.T) {
	ct := NewCT(4)
	ct.Insert(0, 9, 0b0011)
	ct.Insert(0, 9, 0b1100) // refresh merges utilization info
	touched, ok := ct.Remove(0, 9)
	if !ok || touched != 0b1111 {
		t.Fatalf("CT bitmap = %#b,%v; want merged 0b1111", touched, ok)
	}
}

// TestCTFixedCapacityNoAlloc pins the fixed-table contract: the CT's
// backing array is sized once, eviction shifts within it instead of
// sliding the slice window (which made append reallocate), and a full
// table inserts and removes without allocating.
func TestCTFixedCapacityNoAlloc(t *testing.T) {
	const capacity = 32
	ct := NewCT(capacity)
	for i := 0; i < 4*capacity; i++ {
		ct.Insert(i%16, int64(i), 1<<uint(i%16))
		if got := cap(ct.entries); got != capacity {
			t.Fatalf("after %d inserts cap(entries) = %d, want %d", i+1, got, capacity)
		}
	}
	if ct.Len() != capacity {
		t.Fatalf("len = %d, want %d", ct.Len(), capacity)
	}
	row := int64(1000)
	// One run of many operations: AllocsPerRun truncates its mean to an
	// integer, which would hide an allocation amortized over a few dozen
	// evictions; a single run reports the exact total.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			ct.Insert(int(row%16), row, 1) // evicts the LRU entry
			ct.Insert(int(row%16), row, 2) // refreshes a resident entry
			ct.Remove(int(row%16), row)
			ct.Insert(int(row%16), row, 3) // refills the freed slot
			row++
		}
	})
	if allocs != 0 {
		t.Fatalf("1000 rounds of Insert/Remove on a full CT allocated %.0f times, want 0", allocs)
	}
	if got := cap(ct.entries); got != capacity {
		t.Fatalf("cap(entries) = %d after churn, want %d", got, capacity)
	}
}
