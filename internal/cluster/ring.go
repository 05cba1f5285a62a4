// Package cluster turns a fleet of hilightd workers into one logical
// compile service: a coordinator consistent-hashes sync compiles and
// async batch units across workers on the public schedule fingerprint
// (so each worker's byte-capped cache shards naturally and hit rates
// survive scale-out), async units flow through a work-stealing queue so
// a hot worker sheds load to idle peers, and periodic readiness probes
// drain a dying or SIGTERM'd worker the same way one process drains
// itself. Node-to-node responses travel as binary-payload envelopes
// (application/x-hilight-sched+json) and are transcoded at the
// coordinator edge, so client-visible JSON stays byte-identical to a
// single node's. Async batches run through the single node's job store
// (service.JobStore), journal included.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ringVnodes is the virtual-node count per worker. 64 points per node
// keeps the expected ownership imbalance for small fleets (3-16
// workers) under a few percent while a membership change still only
// moves ~1/N of the keyspace.
const ringVnodes = 64

// ring is an immutable consistent-hash ring over worker names. Rebuild
// a new ring on membership change; owner lookups are lock-free reads.
type ring struct {
	hashes []uint64 // sorted vnode positions
	nodes  []string // nodes[i] owns hashes[i]
}

// buildRing places vnodes points per node on the 64-bit ring. An empty
// node list yields an empty ring whose owner is always "".
func buildRing(nodes []string, vnodes int) *ring {
	r := &ring{
		hashes: make([]uint64, 0, len(nodes)*vnodes),
		nodes:  make([]string, 0, len(nodes)*vnodes),
	}
	type pt struct {
		h    uint64
		node string
	}
	pts := make([]pt, 0, len(nodes)*vnodes)
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			pts = append(pts, pt{ringHash(n + "#" + strconv.Itoa(i)), n})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		// Ties (astronomically rare) break on the node name so the ring
		// is deterministic regardless of input order.
		return pts[i].node < pts[j].node
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.nodes = append(r.nodes, p.node)
	}
	return r
}

// owner returns the node owning key: the first vnode clockwise of the
// key's hash. Deterministic for a given membership — the property the
// fingerprint-sharded cache rides on.
func (r *ring) owner(key string) string {
	if len(r.hashes) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0 // wrap past the highest point
	}
	return r.nodes[i]
}

// moved estimates, over n sampled probe keys, how many keys changed
// owner between two rings — the cluster/hash-moves accounting. The
// probe keys are fixed strings, so the estimate is deterministic.
func moved(old, new *ring, n int) int {
	if old == nil || new == nil {
		return 0
	}
	m := 0
	for i := 0; i < n; i++ {
		k := "probe-key-" + strconv.Itoa(i)
		if old.owner(k) != new.owner(k) {
			m++
		}
	}
	return m
}

// ringHash is 64-bit FNV-1a with an avalanche finalizer. Raw FNV-1a
// output on short, near-identical keys ("w2#17") is badly correlated —
// a 3-node ring measured 49/3/48 ownership — so the finalizer (the
// MurmurHash3 fmix64 constants) diffuses every input bit across the
// whole word before the point lands on the ring.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
