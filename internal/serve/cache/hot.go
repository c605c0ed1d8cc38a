// Hot tier: a byte-capped LRU of pre-serialized result payloads held in
// memory, in front of the content-addressed disk store.
//
// The tier stores the exact response bytes — never decoded Results — so a
// hot hit is one map lookup and one slice handoff: no file I/O, no JSON
// round-trip, no digest re-verification (the bytes were verified on the
// way in, by Put or by the disk read that filled them). Payloads are
// shared read-only between the tier and its callers; nothing in the serve
// stack mutates a result payload after it is built.
//
// The cap is bytes, not entries: result payloads vary by orders of
// magnitude with grid size, so an entry-count cap would make memory use a
// function of the workload mix. Eviction is strict LRU from the cold end;
// a payload larger than the whole cap is simply not admitted (it would
// evict everything and then be evicted by the next admission anyway).
package cache

import (
	"container/list"
	"sync"
)

// HotTier is a byte-capped LRU of pre-serialized payloads. The zero value
// is not usable; build one with NewHotTier. All methods are safe for
// concurrent use.
type HotTier struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
}

type hotEntry struct {
	key     string
	payload []byte
}

// NewHotTier builds a tier capped at maxBytes of payload (keys and
// bookkeeping are not counted; they are small and proportional). A cap
// <= 0 returns nil — the disabled tier — and every method on a nil
// *HotTier is a safe no-op miss, so callers never branch.
func NewHotTier(maxBytes int64) *HotTier {
	if maxBytes <= 0 {
		return nil
	}
	return &HotTier{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get returns the payload stored under key and marks it most recently
// used. The returned slice is shared — callers must treat it as read-only.
func (h *HotTier) Get(key string) ([]byte, bool) {
	if h == nil {
		return nil, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.entries[key]
	if !ok {
		return nil, false
	}
	h.ll.MoveToFront(el)
	return el.Value.(*hotEntry).payload, true
}

// Put admits payload under key, evicting from the LRU cold end until the
// tier fits its byte cap. Re-putting a key refreshes its recency and
// replaces its bytes (payloads for one key are content-equal by
// construction, so the swap is invisible). Oversized payloads are ignored.
func (h *HotTier) Put(key string, payload []byte) {
	if h == nil || int64(len(payload)) > h.maxBytes {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.entries[key]; ok {
		e := el.Value.(*hotEntry)
		h.bytes += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		h.ll.MoveToFront(el)
	} else {
		h.entries[key] = h.ll.PushFront(&hotEntry{key: key, payload: payload})
		h.bytes += int64(len(payload))
	}
	for h.bytes > h.maxBytes {
		h.evictOldestLocked()
	}
}

func (h *HotTier) evictOldestLocked() {
	el := h.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*hotEntry)
	h.ll.Remove(el)
	delete(h.entries, e.key)
	h.bytes -= int64(len(e.payload))
}

// Remove drops key from the tier (a corrupt disk entry must not leave a
// stale twin in memory).
func (h *HotTier) Remove(key string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.entries[key]; ok {
		e := el.Value.(*hotEntry)
		h.ll.Remove(el)
		delete(h.entries, key)
		h.bytes -= int64(len(e.payload))
	}
}

// Len reports the resident entry count.
func (h *HotTier) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}

// Bytes reports the resident payload bytes.
func (h *HotTier) Bytes() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}

// MaxBytes reports the configured cap (0 for the disabled tier).
func (h *HotTier) MaxBytes() int64 {
	if h == nil {
		return 0
	}
	return h.maxBytes
}
