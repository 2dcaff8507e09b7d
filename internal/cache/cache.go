// Package cache implements the byte-capacity whole-file LRU cache the
// paper places in front of the disk farm in Section 5.1 (a 16 GB LRU in
// Figures 5 and 6). A hit serves the file without touching any disk; a
// miss is fetched from disk and inserted on completion, evicting
// least-recently-used files until it fits. Files larger than the whole
// cache are never cached.
package cache

import "fmt"

// LRU is a whole-file least-recently-used cache keyed by file ID.
// It is not safe for concurrent use; each simulation run owns one.
type LRU struct {
	capacity int64
	used     int64
	entries  map[int]*node
	// head is most recently used; tail least. Sentinel-free doubly
	// linked list.
	head, tail *node
	// free chains removed nodes through next for Put to reuse, so a
	// warm cache inserts without allocating.
	free *node

	hits, misses          int64
	hitBytes, missBytes   int64
	insertions, evictions int64
}

type node struct {
	id         int
	size       int64
	prev, next *node
}

// NewLRU returns a cache holding at most capacity bytes. Capacity must
// be positive.
func NewLRU(capacity int64) *LRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity %d must be positive", capacity))
	}
	return &LRU{capacity: capacity, entries: make(map[int]*node)}
}

// Get reports whether file id is cached, promoting it to most recently
// used and recording hit/miss statistics. size is the file's size, used
// only for accounting.
func (c *LRU) Get(id int, size int64) bool {
	n, ok := c.entries[id]
	if !ok {
		c.misses++
		c.missBytes += size
		return false
	}
	c.hits++
	c.hitBytes += n.size
	c.moveToFront(n)
	return true
}

// Contains reports whether id is cached without promoting it or
// touching statistics.
func (c *LRU) Contains(id int) bool {
	_, ok := c.entries[id]
	return ok
}

// Put inserts file id of the given size, evicting LRU entries as
// needed. Files larger than the cache capacity are ignored. Putting an
// already-cached file promotes it (and updates its size).
func (c *LRU) Put(id int, size int64) {
	if size < 0 {
		panic(fmt.Sprintf("cache: negative size %d", size))
	}
	if size > c.capacity {
		return
	}
	if n, ok := c.entries[id]; ok {
		c.used += size - n.size
		n.size = size
		c.moveToFront(n)
		c.evictOverflow()
		return
	}
	n := c.free
	if n != nil {
		c.free = n.next
		*n = node{id: id, size: size}
	} else {
		n = &node{id: id, size: size}
	}
	c.entries[id] = n
	c.pushFront(n)
	c.used += size
	c.insertions++
	c.evictOverflow()
}

func (c *LRU) evictOverflow() {
	for c.used > c.capacity && c.tail != nil {
		c.removeNode(c.tail)
		c.evictions++
	}
}

// Remove drops id from the cache if present.
func (c *LRU) Remove(id int) {
	if n, ok := c.entries[id]; ok {
		c.removeNode(n)
	}
}

func (c *LRU) removeNode(n *node) {
	c.unlink(n)
	delete(c.entries, n.id)
	c.used -= n.size
	n.next = c.free
	c.free = n
}

func (c *LRU) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *LRU) pushFront(n *node) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *LRU) moveToFront(n *node) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// Len returns the number of cached files.
func (c *LRU) Len() int { return len(c.entries) }

// Used returns the cached bytes.
func (c *LRU) Used() int64 { return c.used }

// Capacity returns the configured capacity in bytes.
func (c *LRU) Capacity() int64 { return c.capacity }

// Stats summarizes cache activity.
type Stats struct {
	Hits, Misses          int64
	HitBytes, MissBytes   int64
	Insertions, Evictions int64
}

// Stats returns the current counters.
func (c *LRU) Stats() Stats {
	return Stats{
		Hits: c.hits, Misses: c.misses,
		HitBytes: c.hitBytes, MissBytes: c.missBytes,
		Insertions: c.insertions, Evictions: c.evictions,
	}
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup. The
// paper measured 5.6% for a 16 GB LRU on the NERSC workload.
func (c *LRU) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
