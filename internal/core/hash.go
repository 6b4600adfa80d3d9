package core

import "bgpintent/internal/bgp"

// FNV-1a constants, shared by the path-key hash (which routes paths to
// shards) and the community-list hashes (which the list interns probe
// with; tupleKey carries the exact intern refs, not these hashes).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hashKey is FNV-1a over a binary key; it routes paths to shards.
func hashKey(b []byte) uint64 {
	h := fnvOffset64
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// fnvU32 folds one little-endian uint32 into an FNV-1a state.
func fnvU32(h uint64, v uint32) uint64 {
	h ^= uint64(v & 0xff)
	h *= fnvPrime64
	h ^= uint64(v >> 8 & 0xff)
	h *= fnvPrime64
	h ^= uint64(v >> 16 & 0xff)
	h *= fnvPrime64
	h ^= uint64(v >> 24)
	h *= fnvPrime64
	return h
}

// commHash is FNV-1a over canonical communities.
type commHash struct{}

func (commHash) sum(comms []bgp.Community) uint64 {
	h := fnvOffset64
	for _, c := range comms {
		h = fnvU32(h, uint32(c))
	}
	return h
}

// largeHash is FNV-1a over canonical large communities.
type largeHash struct{}

func (largeHash) sum(ls []bgp.LargeCommunity) uint64 {
	h := fnvOffset64
	for _, lc := range ls {
		h = fnvU32(h, lc.GlobalAdmin)
		h = fnvU32(h, lc.LocalData1)
		h = fnvU32(h, lc.LocalData2)
	}
	return h
}
