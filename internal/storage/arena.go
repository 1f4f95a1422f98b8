// Per-bucket slab arenas. Every tuple in a bucket lives inside one of the
// bucket's arena pages — flat []byte slabs that grow with the bucket — so
// a ten-million-row table costs the garbage collector a few thousand page
// objects to trace, not tens of millions of boxed map entries. Pages are
// append-only: a tuple, once placed, is never mutated or moved, which is
// what makes zero-copy TupleViews and by-reference bucket handoff safe.
// Overwrites and deletes tombstone the old bytes (dead-byte accounting);
// when a bucket's dead bytes outweigh its live bytes the bucket compacts by
// rewriting live tuples into fresh pages and dropping the old ones —
// borrowed views keep old pages alive (GC-safe) but the table stops
// retaining them.
package storage

// arenaPageSize is the largest slab size. Tuples larger than a quarter of
// it get a dedicated exact-size page so one jumbo document cannot strand
// most of a slab.
const arenaPageSize = 64 << 10

// arenaMinPage is a bucket's first page size. Each later page doubles, up to
// arenaPageSize, so a bucket holding a handful of rows retains a few hundred
// bytes rather than a full slab, and a big one still reaches full-size pages
// after seven doublings.
const arenaMinPage = 512

// arena is a bump allocator over append-only pages.
type arena struct {
	pages    [][]byte // pages[len-1] is the active page
	retained int      // Σ cap(page): bytes held from the allocator
	next     int      // size of the next regular page; 0 means arenaMinPage
}

// pageFor returns the smallest page of the doubling series from arenaMinPage
// that holds n bytes, capped at arenaPageSize.
func pageFor(n int) int {
	size := arenaMinPage
	for size < n && size < arenaPageSize {
		size *= 2
	}
	return size
}

// place copies t into the arena and returns the stable internal alias.
func (a *arena) place(t []byte) []byte {
	if len(t) > arenaPageSize/4 {
		p := append(make([]byte, 0, len(t)), t...)
		a.retained += cap(p)
		// Keep the active page active: insert the jumbo page behind it.
		if n := len(a.pages); n > 0 {
			a.pages = append(a.pages, a.pages[n-1])
			a.pages[n-1] = p
		} else {
			a.pages = append(a.pages, p)
		}
		return p
	}
	n := len(a.pages)
	if n == 0 || cap(a.pages[n-1])-len(a.pages[n-1]) < len(t) {
		size := pageFor(max(a.next, len(t)))
		a.pages = append(a.pages, make([]byte, 0, size))
		a.retained += size
		a.next = min(2*size, arenaPageSize)
		n = len(a.pages)
	}
	p := a.pages[n-1]
	off := len(p)
	p = append(p, t...)
	a.pages[n-1] = p
	return p[off : off+len(t) : off+len(t)]
}

// bucketRows is one bucket's rows for one table: an arena holding the
// encoded tuples plus a key index aliasing into it. Keys in the index are
// unsafe strings over the tuple bytes — no separate key allocations.
type bucketRows struct {
	index map[string][]byte
	ar    arena
	live  int // bytes of indexed tuples
	dead  int // bytes of tombstoned (overwritten/deleted) tuples
}

func newBucketRows() *bucketRows {
	return &bucketRows{index: make(map[string][]byte)}
}

func (b *bucketRows) len() int { return len(b.index) }

// get returns the stored tuple for key, or nil.
func (b *bucketRows) get(key string) []byte { return b.index[key] }

// putTuple places an already-encoded tuple (whose head encodes its key) and
// indexes it, tombstoning any previous version.
func (b *bucketRows) putTuple(t []byte) {
	stable := b.ar.place(t)
	key := tupleKey(stable)
	if old, ok := b.index[key]; ok {
		b.dead += len(old)
		b.live -= len(old)
	}
	b.index[key] = stable
	b.live += len(stable)
	b.maybeCompact()
}

// delete removes key, reporting whether it existed.
func (b *bucketRows) delete(key string) bool {
	old, ok := b.index[key]
	if !ok {
		return false
	}
	delete(b.index, key)
	b.dead += len(old)
	b.live -= len(old)
	b.maybeCompact()
	return true
}

// maybeCompact rewrites live tuples into fresh pages when dead bytes
// dominate, bounding retained memory at ~2× live under any delete-heavy
// workload. Below a floor of one page sized for the live bytes
// (pageFor(live)) it never runs, so a compaction always frees at least the
// page it writes: a small bucket rewriting its rows compacts at a few KiB,
// a big one at arenaPageSize as before. Old pages are dropped, not
// recycled: a borrowed view may still be reading them, and append-only
// pages are what makes that safe.
func (b *bucketRows) maybeCompact() {
	if len(b.index) == 0 {
		// Empty bucket: nothing to rewrite, drop the pages outright.
		if b.ar.retained > 0 {
			b.ar = arena{}
			b.live, b.dead = 0, 0
		}
		return
	}
	if b.dead <= b.live || b.dead < pageFor(b.live) {
		return
	}
	// The fresh arena starts at a page sized for the live bytes instead of
	// regrowing from arenaMinPage.
	next := arena{next: pageFor(b.live)}
	idx := make(map[string][]byte, len(b.index))
	for _, t := range b.index {
		stable := next.place(t)
		idx[tupleKey(stable)] = stable
	}
	b.ar = next
	b.index = idx
	b.dead = 0
}

// indexEntryOverhead approximates the per-row cost of the key index: a map
// entry (key string header + value slice header + bucket share) — the part
// of a row's footprint that lives outside the arena.
const indexEntryOverhead = 64

// sizeBytes is the bucket's exact retained footprint: arena pages plus
// index overhead.
func (b *bucketRows) sizeBytes() int {
	return b.ar.retained + len(b.index)*indexEntryOverhead
}
