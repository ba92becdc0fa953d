package service

import (
	"bytes"
	"container/list"
	"image/png"
	"sync"

	"resilientfusion/internal/core"
	"resilientfusion/internal/store"
	"resilientfusion/internal/telemetry"
)

// resultCache is a content-addressed LRU of completed fusion results,
// keyed by cube digest + canonicalized options (core.Options.ResultKey).
// Repeated scenes — the common case for a monitoring service re-imaging
// the same area — are served without recomputation. Entries are
// *cachedResult values shared between jobs: the result is immutable and
// its PNG is encoded at most once per entry, so a cache hit costs no
// re-encode.
//
// With a spill tier attached (Config.CacheSpillBytes), entries evicted
// from RAM are written to content-addressed files instead of discarded:
// a later lookup that misses RAM reloads the entry from disk (digest
// re-validated by the store layer), re-promoting it. The spill survives
// restarts, so a rebooted daemon answers its pre-crash repeat traffic
// from disk instead of recomputing. Only the result is spilled: an
// entry promoted back from disk encodes its PNG once more.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element

	// Registry-backed counters (zero-value Counters when the cache runs
	// without a metrics layer, e.g. in direct unit tests).
	hits, misses, evictions *telemetry.Counter

	// Disk-spill tier; nil when disabled. spillHits/spillMisses count
	// only lookups that reached the tier (RAM misses).
	spill                  *store.Spill
	spillHits, spillMisses *telemetry.Counter
	logf                   func(format string, args ...any)
}

type cacheEntry struct {
	key string
	val *cachedResult
}

// cachedResult is one completed result together with its composite's
// PNG encoding, made on the first request and then shared by every job
// that resolves to the result: the run that computed it, later cache
// hits and queued twins alike.
type cachedResult struct {
	res *core.Result

	once sync.Once
	png  []byte
	err  error
}

func newCachedResult(res *core.Result) *cachedResult { return &cachedResult{res: res} }

// imagePNG returns the composite encoded as PNG, encoding it at most
// once; concurrent callers wait for the first encode and share its
// bytes. The caller checks that res.Image is set.
func (r *cachedResult) imagePNG() ([]byte, error) {
	r.once.Do(func() {
		var buf bytes.Buffer
		r.err = png.Encode(&buf, r.res.Image)
		r.png = buf.Bytes()
	})
	return r.png, r.err
}

// newResultCache builds a cache holding up to capacity results;
// capacity <= 0 disables caching (every lookup misses, puts are
// dropped). A nil metrics layer counts into private, unexported atomics.
func newResultCache(capacity int, m *poolMetrics) *resultCache {
	c := &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
	if m != nil {
		c.hits, c.misses, c.evictions = m.cacheHits, m.cacheMisses, m.cacheEvictions
		c.spillHits, c.spillMisses = m.cacheSpillHits, m.cacheSpillMisses
	} else {
		c.hits, c.misses, c.evictions = new(telemetry.Counter), new(telemetry.Counter), new(telemetry.Counter)
		c.spillHits, c.spillMisses = new(telemetry.Counter), new(telemetry.Counter)
	}
	return c
}

// attachSpill arms the disk tier (no-op when spill is nil).
func (c *resultCache) attachSpill(spill *store.Spill, logf func(format string, args ...any)) {
	c.spill = spill
	c.logf = logf
}

// get returns the cached result for key, counting a hit or miss. A RAM
// miss falls through to the spill tier; a spilled entry counts as a hit
// (it is served without recomputation) and is promoted back into RAM.
func (c *resultCache) get(key string) (*cachedResult, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		c.mu.Unlock()
		return el.Value.(*cacheEntry).val, true
	}
	c.mu.Unlock()
	if val, ok := c.fromSpill(key); ok {
		c.hits.Inc()
		c.put(key, val)
		return val, true
	}
	c.misses.Inc()
	return nil, false
}

// peek is get without touching the hit/miss counters or RAM recency
// (used for the re-check after a queued job's twin completed first).
// It still consults the spill tier — a result is a result — but leaves
// the entry on disk.
func (c *resultCache) peek(key string) (*cachedResult, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		val := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()
	if c.spill == nil {
		return nil, false
	}
	return c.fromSpill(key)
}

// fromSpill loads and decodes one spilled entry. Corrupt or undecodable
// entries are dropped (the store layer already removed the file on a
// digest mismatch) and report a miss.
func (c *resultCache) fromSpill(key string) (*cachedResult, bool) {
	if c.spill == nil {
		return nil, false
	}
	payload, ok, err := c.spill.Get(key)
	if err != nil && c.logf != nil {
		c.logf("store: dropping spilled cache entry: %v", err)
	}
	if !ok {
		c.spillMisses.Inc()
		return nil, false
	}
	res, err := decodeResult(payload)
	if err != nil {
		if c.logf != nil {
			c.logf("store: undecodable spilled cache entry dropped: %v", err)
		}
		c.spill.Remove(key)
		c.spillMisses.Inc()
		return nil, false
	}
	c.spillHits.Inc()
	return newCachedResult(res), true
}

// put stores a result, evicting the least recently used entry on
// overflow. With a spill tier attached, evicted entries are written to
// disk (outside the cache lock — encoding and fsync must not stall
// concurrent lookups).
func (c *resultCache) put(key string, val *cachedResult) {
	if c.cap <= 0 {
		return
	}
	var spilled []*cacheEntry
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		c.mu.Unlock()
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		ent := oldest.Value.(*cacheEntry)
		delete(c.items, ent.key)
		c.evictions.Inc()
		if c.spill != nil {
			spilled = append(spilled, ent)
		}
	}
	c.mu.Unlock()
	for _, ent := range spilled {
		c.spillEntry(ent)
	}
}

// spillEntry writes one evicted entry to the disk tier. Failures cost
// only the spill (the entry is simply gone, as it would be without the
// tier), never the caller.
func (c *resultCache) spillEntry(ent *cacheEntry) {
	payload, err := encodeResult(ent.val.res)
	if err == nil {
		err = c.spill.Put(ent.key, payload)
	}
	if err != nil && c.logf != nil {
		c.logf("store: spilling evicted cache entry: %v", err)
	}
}

// counters returns (hits, misses, current RAM size).
func (c *resultCache) counters() (int64, int64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value(), c.misses.Value(), c.ll.Len()
}

// spillStats returns (entries, bytes) resident in the disk tier.
func (c *resultCache) spillStats() (int, int64) {
	if c.spill == nil {
		return 0, 0
	}
	return c.spill.Len(), c.spill.Bytes()
}
