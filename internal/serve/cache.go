package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"

	"shufflenet/internal/network"
	"shufflenet/internal/obs"
)

var (
	metCacheHits   = obs.C("serve.cache.hits")
	metCacheMisses = obs.C("serve.cache.misses")
	metCacheEvicts = obs.C("serve.cache.evictions")
)

// canonicalKey content-addresses a network: the SHA-256 of its
// canonical text form (each level sorted by CanonicalLevel, so two
// submissions that list a level's comparators in different orders — or
// arrive in different serialization formats — share one key). Responses
// and certificates are cached under this key, which is also why two
// clients submitting the same circuit warm each other's caches.
func canonicalKey(c *network.Network) string {
	text := []byte("wires ")
	text = strconv.AppendInt(text, int64(c.Wires()), 10)
	text = append(text, '\n')
	for _, lv := range c.Levels() {
		text = append(text, "level"...)
		for _, cm := range network.CanonicalLevel(lv) {
			text = append(text, ' ')
			text = strconv.AppendInt(text, int64(cm.Min), 10)
			text = append(text, ':')
			text = strconv.AppendInt(text, int64(cm.Max), 10)
		}
		text = append(text, '\n')
	}
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}

// cacheBytes bounds the bodies the response cache holds, as the daemon's
// default memo budget bounds its table: a certificate at the 2^16-wire
// cap is about 831 KB, so 256 of them would pin ~213 MB.
const cacheBytes = 64 << 20

// respCache is a bounded FIFO map from request keys to marshaled
// response bodies, shared by every endpoint (keys carry the endpoint as
// a prefix). It holds at most maxEntries bodies of at most maxBytes in
// total; a body larger than maxBytes is served but never stored. FIFO
// (not LRU) keeps eviction O(1) with no per-get bookkeeping; the
// daemon's working set is "the handful of circuits under study", far
// below any reasonable bound, so the replacement policy is not
// load-bearing. Storing the marshaled bytes rather than the response
// struct is what makes the warm-vs-cold determinism guarantee
// trivially auditable: a cache hit is the byte-identical body of the
// miss that filled it.
type respCache struct {
	mu              sync.Mutex
	maxEntries      int
	maxBytes, bytes int64
	m               map[string][]byte
	order           []string
}

func newRespCache(maxEntries int, maxBytes int64) *respCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &respCache{maxEntries: maxEntries, maxBytes: maxBytes, m: make(map[string][]byte, maxEntries)}
}

func (c *respCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[key]
	if ok {
		metCacheHits.Inc()
	} else {
		metCacheMisses.Inc()
	}
	return b, ok
}

// put stores body under key, then evicts the oldest entries until both
// bounds hold. A key already present keeps its body: a concurrent miss
// of the same request stored the same bytes.
func (c *respCache) put(key string, body []byte) {
	if int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	c.m[key] = body
	c.order = append(c.order, key)
	c.bytes += int64(len(body))
	for len(c.order) > c.maxEntries || c.bytes > c.maxBytes {
		oldest := c.order[0]
		c.order = c.order[1:]
		c.bytes -= int64(len(c.m[oldest]))
		delete(c.m, oldest)
		metCacheEvicts.Inc()
	}
}
