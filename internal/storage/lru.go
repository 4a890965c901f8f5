package storage

import (
	"container/list"
	"sync"
)

// lruKey identifies a cached object: a page of a file or a tuple record.
type lruKey struct {
	file int
	id   int64
}

// lruCache is a fixed-capacity least-recently-used cache. It backs both
// the page-level buffer pool and the tuple cache. A single mutex guards
// the recency list and map: concurrent queries share one buffer pool, and
// every operation (including get, which promotes) mutates the structure.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	items map[lruKey]*list.Element
}

type lruEntry struct {
	key lruKey
	val interface{}
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, order: list.New(), items: make(map[lruKey]*list.Element, capacity)}
}

// get returns the cached value and promotes it, or ok=false on a miss.
func (c *lruCache) get(k lruKey) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry when over capacity.
func (c *lruCache) put(k lruKey, v interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry).val = v
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&lruEntry{key: k, val: v})
	c.items[k] = el
	if c.order.Len() > c.cap {
		last := c.order.Back()
		if last != nil {
			c.order.Remove(last)
			delete(c.items, last.Value.(*lruEntry).key)
		}
	}
}
