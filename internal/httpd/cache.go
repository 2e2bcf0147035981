package httpd

import "sync"

// The hot-prefix response cache. A handful of prefixes and orgs receive
// the bulk of a public query service's traffic; caching the fully
// rendered response body (status, JSON bytes, telemetry classification)
// turns a hot repeat query into one map read and one socket write — no
// parse, no lookup, no encode.
//
// Correctness contract: a cached body embeds the snapshot version it
// was rendered from, so an entry may only be served to a request that
// pinned that same snapshot. Every entry carries its version and get
// compares it against the caller's pinned version — airtight even when
// a fill races a swap. There is no swap hook: after a reload the older
// entries simply miss, and the refill overwrites each in place (or the
// shard's FIFO ring evicts it first).

const cacheShardCount = 16

// cacheEntry is one rendered response.
type cacheEntry struct {
	version uint64
	status  int
	qtype   string
	outcome string
	body    []byte
}

// cacheShard is one lock domain: a map for lookup plus a FIFO ring of
// the keys occupying the shard's slots, evicted oldest-first.
type cacheShard struct {
	mu   sync.Mutex
	m    map[string]*cacheEntry
	keys []string
	next int
}

// responseCache shards entries across cacheShardCount lock domains so
// concurrent handlers rarely contend. A nil *responseCache is the
// disabled cache: get always misses and put is a no-op.
type responseCache struct {
	shards [cacheShardCount]cacheShard
}

// newResponseCache builds a cache bounded to size entries in total
// (rounded up to a multiple of the shard count); size <= 0 returns nil,
// the disabled cache.
func newResponseCache(size int) *responseCache {
	if size <= 0 {
		return nil
	}
	per := (size + cacheShardCount - 1) / cacheShardCount
	c := &responseCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry, per)
		c.shards[i].keys = make([]string, per)
	}
	return c
}

// shard routes a key to its lock domain (inline FNV-1a; hash/fnv would
// allocate a hasher per call).
func (c *responseCache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%cacheShardCount]
}

// get returns the entry for key if present and rendered from the given
// snapshot version. A version mismatch is a miss that leaves the stale
// entry in place: the caller's refill replaces it under the same ring
// slot, so a stale key never occupies two slots.
func (c *responseCache) get(key string, version uint64) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[key]
	if e == nil || e.version != version {
		return nil, false
	}
	return e, true
}

// put inserts one entry, evicting the shard's oldest insertion when its
// slots are full; an existing key (a stale entry being refilled) keeps
// its slot and only has its value replaced.
func (c *responseCache) put(key string, e *cacheEntry) {
	if c == nil {
		return
	}
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.m[key]; !exists {
		// Nothing but eviction removes a key, so every ring key is live.
		if old := sh.keys[sh.next]; old != "" {
			delete(sh.m, old)
			mCacheEvictions.Inc()
		}
		sh.keys[sh.next] = key
		sh.next = (sh.next + 1) % len(sh.keys)
	}
	sh.m[key] = e
}

// len reports the live entry count across shards (tests and debugging).
func (c *responseCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
