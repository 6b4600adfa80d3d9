package core

// Shared storage behind every TupleStore. The shards of a
// ShardedTupleStore share one storeShared, so every span a shard writes
// is already valid in the stitched store and parallel loads need no
// serial merge; a plain store owns one of its own. It holds:
//
//   - two list intern tables (listIntern), one for classic and one for
//     large community lists: canonical lists are deduplicated globally
//     and stored once in a chunked arena, so a tuple's comms span is
//     already global and Stitch moves no community data. Reads are
//     lock-free (atomic table pointer, CAS-free probing of atomically
//     published slots); inserts take one mutex but are rare once the
//     distinct lists have been seen.
//   - a shared ASN arena (sharedArena[uint32]): each shard appends its
//     new paths' distinct-ASN sequences into globally addressed chunks,
//     so path spans are global too and Stitch moves no ASN data either.
//     (Paths shard by path key, so there is no cross-shard ASN-sequence
//     duplication to dedup — sharing the arena is purely about making
//     the spans stitchable.)
//
// Memory-model argument for the lock-free read path: an inserter, while
// holding the intern mutex, (1) publishes any new arena chunk through
// an atomic pointer, (2) writes the list values into the chunk, and
// (3) atomically stores the packed slot last. A reader that observes
// the slot value (atomic load) therefore observes the chunk pointer and
// the values written before it, per the Go memory model. Readers that
// miss (stale table or empty slot) fall back to the mutex and re-probe.

import (
	"slices"
	"sync"
	"sync/atomic"

	"bgpintent/internal/bgp"
)

// A span's 32-bit offset packs the chunk index above the in-chunk
// position, which has room for 1<<20 elements, so the global capacity
// stays the 4G entries the span layout already assumed. Chunks start at
// internFirstChunk elements and double up to internChunkSize, so a
// store holding a handful of lists pays for a handful of elements.
// Lists never span chunks (BGP attribute lengths cap lists far below a
// full chunk; a list longer than the next chunk gets a chunk of its
// own length).
const (
	internChunkShift = 20
	internChunkSize  = 1 << internChunkShift
	internChunkMask  = internChunkSize - 1
	internMaxChunks  = 1 << (32 - internChunkShift)
	internFirstChunk = 256
)

// sharedArena is a concurrently appendable, globally addressed arena:
// appends reserve a contiguous region under a mutex, reads resolve a
// (offset, length) span lock-free at any time.
type sharedArena[T any] struct {
	chunks atomic.Pointer[[][]T]
	mu     sync.Mutex
	fill   int // elements used in the newest chunk (guarded by mu)
}

// append copies vals into the arena and returns the global offset of
// the copy. The written values are visible to any reader that acquired
// the offset through a properly published location (see the package
// comment); callers that hand the offset to another goroutine through
// a mutex or channel are covered by those primitives instead.
func (a *sharedArena[T]) append(vals []T) uint32 {
	n := len(vals)
	if n > internChunkSize {
		panic("core: arena list exceeds chunk size")
	}
	a.mu.Lock()
	var chunks [][]T
	if p := a.chunks.Load(); p != nil {
		chunks = *p
	}
	nc := len(chunks)
	if nc == 0 || a.fill+n > len(chunks[nc-1]) {
		if nc >= internMaxChunks {
			panic("core: shared arena full")
		}
		size := internChunkSize
		if nc < internChunkShift {
			size = min(internFirstChunk<<nc, internChunkSize)
		}
		next := append(slices.Clip(chunks), make([]T, max(size, n)))
		a.chunks.Store(&next)
		chunks = next
		nc++
		a.fill = 0
	}
	off := uint32(nc-1)<<internChunkShift | uint32(a.fill)
	copy(chunks[nc-1][a.fill:], vals)
	a.fill += n
	a.mu.Unlock()
	return off
}

// view resolves a span into the arena. Zero-length spans return nil.
func (a *sharedArena[T]) view(off, n uint32) []T {
	if n == 0 {
		return nil
	}
	chunks := *a.chunks.Load()
	c := chunks[off>>internChunkShift]
	i := off & internChunkMask
	return c[i : i+n : i+n]
}

// packRef packs an arena span into the intern reference: offset in the
// high 32 bits, length in the low 32. The empty list is ref 0.
func packRef(off, n uint32) uint64 { return uint64(off)<<32 | uint64(n) }

func unpackRef(ref uint64) (off, n uint32) { return uint32(ref >> 32), uint32(ref) }

// internTable is one generation of an intern hash table: open-addressed,
// linear probing, power-of-two sized. A slot holds the packed span of
// one interned list plus one (so zero means empty); slots are written
// atomically exactly once.
type internTable struct {
	mask  uint64
	slots []atomic.Uint64
}

// insert publishes ref into the first empty slot of its probe chain.
// Callers hold the intern mutex.
func (t *internTable) insert(h uint64, ref uint64) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].Load() == 0 {
			t.slots[i].Store(ref + 1)
			return
		}
	}
}

// listHash is the per-kind hash an intern table probes with. It is a
// type parameter rather than a func field, so a zero listIntern is
// ready to use.
type listHash[T any] interface {
	sum(list []T) uint64
}

// listIntern globally deduplicates canonical lists across all stores
// sharing one storeShared. The returned refs are exact identities — two
// AddViews with the same canonical list always get the same ref — so
// tuple dedup needs no content hashing or collision overflow. Ref
// values depend on arrival order and are NOT stable across runs;
// everything derived from them must go through the list content (and
// does: Stitch orders by content, snapshots and TSV render content).
type listIntern[T comparable, H listHash[T]] struct {
	arena sharedArena[T]
	table atomic.Pointer[internTable]
	mu    sync.Mutex
	count int // live entries (guarded by mu)
}

// commIntern and largeIntern are the classic and large (RFC 8092)
// community list interns.
type (
	commIntern  = listIntern[bgp.Community, commHash]
	largeIntern = listIntern[bgp.LargeCommunity, largeHash]
)

// lookup probes t for canon, returning its ref. Lock-free; may miss
// entries inserted into a newer table.
func (li *listIntern[T, H]) lookup(t *internTable, h uint64, canon []T) (uint64, bool) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, false
		}
		if off, n := unpackRef(s - 1); slices.Equal(li.arena.view(off, n), canon) {
			return s - 1, true
		}
	}
}

// intern returns the ref of canon, inserting it on first sight. The hit
// path is lock-free and allocation-free; canon may be reused by the
// caller (the arena keeps its own copy).
func (li *listIntern[T, H]) intern(canon []T) uint64 {
	if len(canon) == 0 {
		return 0
	}
	var hash H
	h := hash.sum(canon)
	if t := li.table.Load(); t != nil {
		if ref, ok := li.lookup(t, h, canon); ok {
			return ref
		}
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	t := li.table.Load()
	if t != nil {
		// Re-probe the latest table: another shard may have inserted the
		// list between our lock-free miss and taking the mutex.
		if ref, ok := li.lookup(t, h, canon); ok {
			return ref
		}
	}
	if t == nil || uint64(li.count+1)*4 > 3*(t.mask+1) {
		t = li.grow(t)
	}
	ref := packRef(li.arena.append(canon), uint32(len(canon)))
	t.insert(h, ref)
	li.count++
	return ref
}

// view resolves a ref back to its list (shared storage; do not mutate).
func (li *listIntern[T, H]) view(off, n uint32) []T {
	return li.arena.view(off, n)
}

// grow publishes a table of at least double the capacity with every
// existing entry rehashed into it. Holding the mutex keeps insertions
// out; lock-free readers keep probing the old table (every entry they
// could have seen is in both) until the pointer swap lands.
func (li *listIntern[T, H]) grow(old *internTable) *internTable {
	size := uint64(1024)
	if old != nil {
		size = 2 * (old.mask + 1)
	}
	nt := &internTable{mask: size - 1, slots: make([]atomic.Uint64, size)}
	if old != nil {
		var hash H
		for i := range old.slots {
			if s := old.slots[i].Load(); s != 0 {
				nt.insert(hash.sum(li.arena.view(unpackRef(s-1))), s-1)
			}
		}
	}
	li.table.Store(nt)
	return nt
}

// storeShared bundles the intern tables and ASN arena behind one
// TupleStore, or behind every shard of one ShardedTupleStore (and the
// stitched output).
type storeShared struct {
	comms  commIntern
	larges largeIntern
	asns   sharedArena[uint32]
}
