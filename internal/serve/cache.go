package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// chunkKey identifies one decoded chunk in the cache. The generation
// number is assigned by the catalog each time it (re)opens an archive, so
// replacing an archive invalidates every cached chunk of the old version
// without a scan: the stale keys simply stop being requested and age out
// of the LRU.
type chunkKey struct {
	gen   uint64
	entry int
	chunk int
}

// ChunkCache is a size-bounded LRU over decoded chunk slabs — the hot-set
// store behind ranged region reads. Regions are assembled by copying from
// cached slabs, so N concurrent readers of one hot chunk decode it once
// and share the float64 slab read-only afterwards.
//
// Concurrent misses on the same key are deduplicated singleflight-style:
// the first requester decodes while the rest block on its result, so a
// thundering herd on a cold hot-spot costs one decode, not N.
type ChunkCache struct {
	capBytes int64

	mu     sync.Mutex
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[chunkKey]*list.Element
	flight map[chunkKey]*flightCall

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

// cacheEntry is one resident slab.
type cacheEntry struct {
	key  chunkKey
	slab []float64
}

// flightCall is one in-progress decode other requesters wait on.
type flightCall struct {
	done chan struct{}
	slab []float64
	err  error
}

// slabBytes is the accounting size of a slab: 8 bytes per float64. The
// map/list overhead per entry is negligible next to any realistic chunk.
func slabBytes(slab []float64) int64 { return int64(len(slab)) * 8 }

// NewChunkCache builds a cache bounded to capBytes of decoded slab data.
// capBytes <= 0 disables residency entirely (every Get decodes; useful
// for measuring the cache's own contribution) while keeping singleflight
// dedup.
func NewChunkCache(capBytes int64) *ChunkCache {
	return &ChunkCache{
		capBytes: capBytes,
		ll:       list.New(),
		items:    make(map[chunkKey]*list.Element),
		flight:   make(map[chunkKey]*flightCall),
	}
}

// GetOrDecode returns the decoded slab for key, filling a miss by calling
// decode exactly once no matter how many goroutines miss concurrently.
// The returned slab is shared: callers must only read it, never write or
// retain it past the request. The server hands GetOrDecode to
// codec.DecompressRegionFrom as its slab source, which copies the
// region's part of each slab into the response field.
func (c *ChunkCache) GetOrDecode(key chunkKey, decode func() ([]float64, error)) ([]float64, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		slab := el.Value.(*cacheEntry).slab
		c.mu.Unlock()
		c.hits.Add(1)
		return slab, nil
	}
	if fc, ok := c.flight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-fc.done
		return fc.slab, fc.err
	}
	fc := &flightCall{done: make(chan struct{})}
	c.flight[key] = fc
	c.mu.Unlock()
	c.misses.Add(1)

	fc.slab, fc.err = decode()

	c.mu.Lock()
	delete(c.flight, key)
	if fc.err == nil {
		c.insertLocked(key, fc.slab)
	}
	c.mu.Unlock()
	close(fc.done)
	return fc.slab, fc.err
}

// insertLocked adds a decoded slab and evicts from the cold end until the
// cache fits its bound again. Slabs larger than the whole bound are never
// admitted — they would evict the entire hot set for one resident.
func (c *ChunkCache) insertLocked(key chunkKey, slab []float64) {
	n := slabBytes(slab)
	if n > c.capBytes {
		return
	}
	if el, ok := c.items[key]; ok {
		// A concurrent Put of the same archive raced us; keep the one
		// already resident.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, slab: slab})
	c.bytes += n
	for c.bytes > c.capBytes {
		cold := c.ll.Back()
		if cold == nil {
			break
		}
		ent := cold.Value.(*cacheEntry)
		c.ll.Remove(cold)
		delete(c.items, ent.key)
		c.bytes -= slabBytes(ent.slab)
		c.evictions.Add(1)
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"` // waiters that rode another goroutine's decode
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	CapBytes  int64  `json:"cap_bytes"`
}

// HitRatio is the fraction of lookups served without a decode (resident
// hits plus coalesced waiters); 0 when nothing has been looked up.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Stats snapshots the counters.
func (c *ChunkCache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		CapBytes:  c.capBytes,
	}
}
