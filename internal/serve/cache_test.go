package serve

import (
	"testing"
	"time"
)

func key(source int32) Key { return Key{Source: source, Kind: KindFull} }

func TestCacheGetPut(t *testing.T) {
	c := NewCache[string](1<<20, 4, 0)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1), "a", 100)
	v, ok := c.Get(key(1))
	if !ok || v != "a" {
		t.Fatalf("got %q ok=%v, want a", v, ok)
	}
	if c.Len() != 1 || c.Bytes() != 100 {
		t.Fatalf("len=%d bytes=%d", c.Len(), c.Bytes())
	}
	// Replacement keeps one entry and recharges bytes.
	c.Put(key(1), "b", 40)
	if v, _ := c.Get(key(1)); v != "b" {
		t.Fatalf("got %q after replace", v)
	}
	if c.Len() != 1 || c.Bytes() != 40 {
		t.Fatalf("after replace: len=%d bytes=%d", c.Len(), c.Bytes())
	}
}

func TestCacheKeyComponentsDistinct(t *testing.T) {
	c := NewCache[int](1<<20, 1, 0)
	keys := []Key{
		{Source: 1, Kind: KindFull},
		{Source: 1, Kind: KindTopK, Aux: 10},
		{Source: 1, Kind: KindTopK, Aux: 20},
		{Source: 1, Kind: KindPair, Aux: 10},
		{Source: 1, Kind: KindFull, Fingerprint: 7},
		{Source: 1, Kind: KindFull, Epoch: 3},
	}
	for i, k := range keys {
		c.Put(k, i, 1)
	}
	for i, k := range keys {
		v, ok := c.Get(k)
		if !ok || v != i {
			t.Fatalf("key %d: got %d ok=%v", i, v, ok)
		}
	}
}

func TestCacheLRUEvictionByBytes(t *testing.T) {
	c := NewCache[int](100, 1, 0) // one shard so the budget is global
	var evicted int
	c.evictCap = func() { evicted++ }
	for i := int32(0); i < 10; i++ {
		c.Put(key(i), int(i), 30) // 3 fit, 4th evicts the LRU
	}
	if c.Bytes() > 100 {
		t.Fatalf("bytes %d over capacity", c.Bytes())
	}
	if c.Len() != 3 {
		t.Fatalf("len=%d, want 3", c.Len())
	}
	if evicted != 7 {
		t.Fatalf("evicted=%d, want 7", evicted)
	}
	// Recency: touch 7, insert another, 8 (the LRU) should go.
	if _, ok := c.Get(key(7)); !ok {
		t.Fatal("expected 7 resident")
	}
	c.Put(key(100), 100, 30)
	if _, ok := c.Get(key(7)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get(key(8)); ok {
		t.Fatal("LRU entry survived eviction")
	}
}

func TestCacheOversizeEntryNotAdmitted(t *testing.T) {
	c := NewCache[int](100, 1, 0)
	c.Put(key(1), 1, 1000)
	if c.Len() != 0 {
		t.Fatal("oversize entry admitted")
	}
}

func TestCacheTTL(t *testing.T) {
	c := NewCache[int](1<<20, 2, 10*time.Millisecond)
	var expired int
	c.evictTTL = func() { expired++ }
	c.Put(key(1), 1, 8)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("fresh entry missing")
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("expired entry served")
	}
	if expired != 1 {
		t.Fatalf("expired=%d, want 1", expired)
	}
	if c.Len() != 0 {
		t.Fatal("expired entry still resident")
	}
}

func TestCachePurge(t *testing.T) {
	c := NewCache[int](1<<20, 4, 0)
	var inv int
	c.evictInv = func() { inv++ }
	for i := int32(0); i < 20; i++ {
		c.Put(key(i), int(i), 8)
	}
	c.Purge()
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after purge: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if inv != 20 {
		t.Fatalf("invalidated=%d, want 20", inv)
	}
	if _, ok := c.Get(key(3)); ok {
		t.Fatal("purged entry served")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	p := paramsForTest()
	base := Fingerprint(p)
	q := p
	q.Epsilon *= 2
	if Fingerprint(q) == base {
		t.Fatal("epsilon change did not move the fingerprint")
	}
	q = p
	q.Seed++
	if Fingerprint(q) == base {
		t.Fatal("seed change did not move the fingerprint")
	}
	if Fingerprint(p) != base {
		t.Fatal("fingerprint is not deterministic")
	}
}

func TestCachePutGateRejects(t *testing.T) {
	c := NewCache[int](1<<20, 4, 0)
	gen := 1
	c.SetGate(func(_ Key, v int) bool { return v == gen })
	c.Put(key(1), 1, 8)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("current-generation entry rejected")
	}
	gen = 2 // a swap happened; stale values must not land
	c.Put(key(2), 1, 8)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("stale-generation entry admitted")
	}
	c.Put(key(3), 2, 8)
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("fresh entry rejected after generation bump")
	}
}
