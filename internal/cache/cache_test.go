package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMissThenHit(t *testing.T) {
	c := NewLRU(1000)
	if c.Get(1, 100) {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 100)
	if !c.Get(1, 100) {
		t.Fatal("miss after Put")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if c.HitRatio() != 0.5 {
		t.Fatalf("hit ratio %v want 0.5", c.HitRatio())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU(300)
	c.Put(1, 100)
	c.Put(2, 100)
	c.Put(3, 100)
	// Touch 1 so 2 becomes LRU.
	if !c.Get(1, 100) {
		t.Fatal("1 missing")
	}
	c.Put(4, 100) // must evict 2
	if c.Contains(2) {
		t.Fatal("2 should have been evicted")
	}
	for _, id := range []int{1, 3, 4} {
		if !c.Contains(id) {
			t.Fatalf("%d should be cached", id)
		}
	}
	if c.Used() != 300 {
		t.Fatalf("used=%d want 300", c.Used())
	}
}

func TestEvictionMultiple(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 40)
	c.Put(2, 40)
	c.Put(3, 90) // must evict both
	if c.Contains(1) || c.Contains(2) {
		t.Fatal("eviction of multiple entries failed")
	}
	if !c.Contains(3) || c.Used() != 90 {
		t.Fatalf("cache state wrong: used=%d", c.Used())
	}
	if c.Stats().Evictions != 2 {
		t.Fatalf("evictions=%d want 2", c.Stats().Evictions)
	}
}

func TestOversizeFileNeverCached(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 101)
	if c.Contains(1) || c.Len() != 0 {
		t.Fatal("oversize file cached")
	}
	// Exactly capacity is allowed.
	c.Put(2, 100)
	if !c.Contains(2) {
		t.Fatal("capacity-size file rejected")
	}
}

func TestPutExistingPromotesAndResizes(t *testing.T) {
	c := NewLRU(300)
	c.Put(1, 100)
	c.Put(2, 100)
	c.Put(1, 150) // resize + promote
	if c.Used() != 250 {
		t.Fatalf("used=%d want 250", c.Used())
	}
	c.Put(3, 100) // evicts 2 (LRU), not 1
	if c.Contains(2) || !c.Contains(1) {
		t.Fatal("promote-on-put broken")
	}
}

func TestRemove(t *testing.T) {
	c := NewLRU(100)
	c.Put(1, 50)
	c.Remove(1)
	if c.Contains(1) || c.Used() != 0 || c.Len() != 0 {
		t.Fatal("Remove failed")
	}
	c.Remove(99) // absent: no-op
	// List must still be consistent.
	c.Put(2, 50)
	c.Put(3, 50)
	if !c.Contains(2) || !c.Contains(3) {
		t.Fatal("cache unusable after Remove")
	}
}

func TestContainsDoesNotPromote(t *testing.T) {
	c := NewLRU(200)
	c.Put(1, 100)
	c.Put(2, 100)
	_ = c.Contains(1) // must NOT promote
	c.Put(3, 100)     // evicts 1
	if c.Contains(1) {
		t.Fatal("Contains promoted the entry")
	}
	if hits := c.Stats().Hits; hits != 0 {
		t.Fatalf("Contains counted as hit: %d", hits)
	}
}

func TestHitRatioEmptyCache(t *testing.T) {
	c := NewLRU(10)
	if c.HitRatio() != 0 {
		t.Fatal("hit ratio on untouched cache should be 0")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	NewLRU(0)
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size accepted")
		}
	}()
	NewLRU(10).Put(1, -1)
}

func TestZeroSizeFiles(t *testing.T) {
	c := NewLRU(10)
	c.Put(1, 0)
	if !c.Contains(1) {
		t.Fatal("zero-size file not cached")
	}
	if !c.Get(1, 0) {
		t.Fatal("zero-size file not hit")
	}
}

// Property: used bytes always equal the sum of cached entry sizes and
// never exceed capacity.
func TestInvariantProperty(t *testing.T) {
	prop := func(ops []struct {
		ID   uint8
		Size uint16
		Op   uint8
	}) bool {
		c := NewLRU(2000)
		model := map[int]int64{}
		for _, op := range ops {
			id := int(op.ID % 50)
			size := int64(op.Size % 1500)
			switch op.Op % 3 {
			case 0:
				c.Put(id, size)
				if size <= 2000 {
					model[id] = size
				}
			case 1:
				hit := c.Get(id, size)
				_, inModel := model[id]
				// A hit implies the model had it (the reverse does
				// not hold: the model ignores eviction).
				if hit && !inModel {
					return false
				}
			case 2:
				c.Remove(id)
				delete(model, id)
			}
			// Shrink the model to what's actually cached: every
			// cached id must have the model's size.
			var used int64
			for id := range model {
				if !c.Contains(id) {
					delete(model, id)
				}
			}
			for id, sz := range model {
				_ = id
				used += sz
			}
			if c.Used() != used || c.Used() > 2000 || c.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChurnStress(t *testing.T) {
	c := NewLRU(1 << 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		id := rng.Intn(5000)
		size := int64(rng.Intn(1 << 16))
		if !c.Get(id, size) {
			c.Put(id, size)
		}
		if c.Used() > c.Capacity() {
			t.Fatalf("iteration %d: used %d exceeds capacity", i, c.Used())
		}
	}
	s := c.Stats()
	if s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 {
		t.Fatalf("stress run did not exercise all paths: %+v", s)
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := NewLRU(1 << 30)
	for i := 0; i < 1000; i++ {
		c.Put(i, 1<<10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(i%1000, 1<<10)
	}
}

func BenchmarkPutEvictChurn(b *testing.B) {
	c := NewLRU(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(i, 1<<10)
	}
}

// A warm cache reuses the nodes it evicts: get/put churn over more
// files than fit allocates nothing.
func TestWarmChurnAllocatesNothing(t *testing.T) {
	c := NewLRU(64 << 10)
	rng := rand.New(rand.NewSource(2))
	churn := func(n int) {
		for i := 0; i < n; i++ {
			id := rng.Intn(256)
			if !c.Get(id, 1<<10) {
				c.Put(id, 1<<10)
			}
		}
	}
	churn(10_000)
	if allocs := testing.AllocsPerRun(5, func() { churn(1000) }); allocs != 0 {
		t.Fatalf("1000 get/put operations on a warm cache allocate %v objects, want 0", allocs)
	}
	if s := c.Stats(); s.Evictions == 0 || s.Hits == 0 {
		t.Fatalf("churn did not evict and hit: %+v", s)
	}
}
