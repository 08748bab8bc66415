package serve

import (
	"container/list"
	"sync"
	"time"
)

// Cache is a sharded, bytes-bounded LRU with optional TTL. Each shard has
// its own lock and byte budget, so concurrent queries for different keys
// rarely contend. Values carry an explicit byte size (a full RWR vector is
// 8·n bytes — far too big to count entries instead of bytes).
type Cache[V any] struct {
	shards   []*cacheShard[V]
	mask     uint64
	ttl      time.Duration
	hits     counterSink
	miss     counterSink
	evictCap counterSink
	evictTTL counterSink
	evictInv counterSink
	// gate, when set, is consulted under the shard lock immediately before
	// each insert; returning false drops the Put. Graph swaps use it to
	// reject results computed against a superseded snapshot: because both
	// the gate check and Purge's sweep hold the shard lock, a stale value
	// either observes the new generation and is rejected here, or lands
	// before the sweep and is removed by it — there is no window where it
	// can slip in after the sweep.
	gate func(Key, V) bool
}

// counterSink decouples the cache from any metrics backend.
type counterSink func()

func nopSink() {}

type cacheEntry[V any] struct {
	key     Key
	val     V
	bytes   int64
	expires time.Time // zero = never
}

type cacheShard[V any] struct {
	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	bytes    int64
	capacity int64
}

// NewCache returns a cache with the given total byte capacity split across
// shards (shards is rounded up to a power of two; ≤ 0 means 16). ttl ≤ 0
// disables expiry.
func NewCache[V any](capacityBytes int64, shards int, ttl time.Duration) *Cache[V] {
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if capacityBytes < 1 {
		capacityBytes = 1
	}
	per := capacityBytes / int64(n)
	if per < 1 {
		per = 1
	}
	c := &Cache[V]{
		shards: make([]*cacheShard[V], n),
		mask:   uint64(n - 1),
		ttl:    ttl,
		hits:   nopSink, miss: nopSink,
		evictCap: nopSink, evictTTL: nopSink, evictInv: nopSink,
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard[V]{
			ll:       list.New(),
			items:    make(map[Key]*list.Element),
			capacity: per,
		}
	}
	return c
}

// SetGate installs the admission gate (see the field doc). Call it before
// the cache sees traffic; it is not synchronised with concurrent Puts.
func (c *Cache[V]) SetGate(gate func(Key, V) bool) { c.gate = gate }

func (c *Cache[V]) shard(k Key) *cacheShard[V] {
	return c.shards[k.hash()&c.mask]
}

// Get returns the live entry for k, refreshing its recency. Expired
// entries are removed and reported as a miss.
func (c *Cache[V]) Get(k Key) (V, bool) {
	s := c.shard(k)
	now := time.Now()
	s.mu.Lock()
	el, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		c.miss()
		var zero V
		return zero, false
	}
	e := el.Value.(*cacheEntry[V])
	if !e.expires.IsZero() && now.After(e.expires) {
		s.remove(el)
		s.mu.Unlock()
		c.evictTTL()
		c.miss()
		var zero V
		return zero, false
	}
	s.ll.MoveToFront(el)
	v := e.val
	s.mu.Unlock()
	c.hits()
	return v, true
}

// Put inserts (or replaces) the entry for k, charging bytes against the
// shard budget and evicting LRU entries until the shard fits. An entry
// larger than a whole shard is not admitted at all.
func (c *Cache[V]) Put(k Key, v V, bytes int64) {
	if bytes < 1 {
		bytes = 1
	}
	s := c.shard(k)
	if bytes > s.capacity {
		return
	}
	var expires time.Time
	if c.ttl > 0 {
		expires = time.Now().Add(c.ttl)
	}
	s.mu.Lock()
	if c.gate != nil && !c.gate(k, v) {
		s.mu.Unlock()
		return
	}
	if el, ok := s.items[k]; ok {
		s.remove(el)
	}
	el := s.ll.PushFront(&cacheEntry[V]{key: k, val: v, bytes: bytes, expires: expires})
	s.items[k] = el
	s.bytes += bytes
	evicted := 0
	for s.bytes > s.capacity {
		back := s.ll.Back()
		if back == nil || back == el {
			break
		}
		s.remove(back)
		evicted++
	}
	s.mu.Unlock()
	for i := 0; i < evicted; i++ {
		c.evictCap()
	}
}

// remove unlinks el; callers hold the shard lock.
func (s *cacheShard[V]) remove(el *list.Element) {
	e := el.Value.(*cacheEntry[V])
	delete(s.items, e.key)
	s.ll.Remove(el)
	s.bytes -= e.bytes
}

// Purge drops every entry (graph epoch bump: all keys are dead anyway),
// reports them as invalidation evictions, and returns how many were
// dropped.
func (c *Cache[V]) Purge() int {
	dropped := 0
	for _, s := range c.shards {
		s.mu.Lock()
		dropped += s.ll.Len()
		s.ll.Init()
		s.items = make(map[Key]*list.Element)
		s.bytes = 0
		s.mu.Unlock()
	}
	for i := 0; i < dropped; i++ {
		c.evictInv()
	}
	return dropped
}

// Len returns the live entry count across shards.
func (c *Cache[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the bytes currently charged across shards.
func (c *Cache[V]) Bytes() int64 {
	var n int64
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}
