package server

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used response cache. Every
// /v1 response is a pure function of its canonicalized request, so the
// cache needs no expiry — only bounded memory.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

// lruEntry is one cached response keyed by canonical request.
type lruEntry struct {
	key  string
	resp *cachedResponse
}

// newLRUCache builds a cache holding at most capacity entries.
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: map[string]*list.Element{},
	}
}

// get returns the cached response and marks it most recently used.
func (c *lruCache) get(key string) (*cachedResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).resp, true
}

// put inserts or refreshes a response, evicting the least recently used
// entry when over capacity.
func (c *lruCache) put(key string, resp *cachedResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).resp = resp
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, resp: resp})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// size reports the current entry count.
func (c *lruCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
