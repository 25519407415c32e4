package wal

import (
	"sync"
	"sync/atomic"
)

// blockCache caches fixed-size log blocks for random reads by LSN (undo,
// lock re-acquisition, SplitLSN searches). It is sharded by block index so
// concurrent readers — e.g. several snapshot-recovery workers unwinding
// different pages — do not contend on a single mutex, and each shard runs a
// second-chance (clock) eviction policy: a block touched since it was
// enqueued survives one eviction pass instead of leaving in pure FIFO order.
type blockCache struct {
	shards []*cacheShard
	mask   int64
	// hits and misses count demand lookups (get); the readahead probe
	// (peek) is not a demand and counts as neither.
	hits, misses atomic.Int64
}

type cacheShard struct {
	mu    sync.Mutex
	max   int
	items map[int64]*cacheEntry
	// order is the clock ring: eviction pops the head; a popped entry whose
	// ref bit is set is granted a second chance (bit cleared, re-enqueued).
	order []int64
}

type cacheEntry struct {
	blk []byte
	ref bool
}

// cacheShardCount picks the shard count for a cache of max blocks: enough
// shards to spread concurrent readers, but never so many that a shard holds
// fewer than 8 blocks. Always a power of two.
func cacheShardCount(max int) int {
	n := 1
	for n < 8 && max/(n*2) >= 8 {
		n *= 2
	}
	return n
}

func newBlockCache(max int) *blockCache {
	n := cacheShardCount(max)
	c := &blockCache{shards: make([]*cacheShard, n), mask: int64(n - 1)}
	per := max / n
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{max: per, items: make(map[int64]*cacheEntry, per)}
	}
	return c
}

func (c *blockCache) shard(idx int64) *cacheShard { return c.shards[idx&c.mask] }

// get is a demand lookup: the caller needs block idx now and reads it from
// disk on a nil return.
func (c *blockCache) get(idx int64) []byte {
	blk := c.peek(idx)
	if blk != nil {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return blk
}

// peek returns block idx if it is cached, uncounted.
func (c *blockCache) peek(idx int64) []byte {
	s := c.shard(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[idx]
	if e == nil {
		return nil
	}
	e.ref = true
	return e.blk
}

func (c *blockCache) put(idx int64, blk []byte) {
	s := c.shard(idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[idx]; ok {
		e.blk = blk
		e.ref = true
		return
	}
	for len(s.items) >= s.max && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		e := s.items[victim]
		if e.ref {
			e.ref = false
			s.order = append(s.order, victim)
			continue
		}
		delete(s.items, victim)
	}
	s.items[idx] = &cacheEntry{blk: blk}
	s.order = append(s.order, idx)
}

func (c *blockCache) clear() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.items = make(map[int64]*cacheEntry, s.max)
		s.order = s.order[:0]
		s.mu.Unlock()
	}
}
