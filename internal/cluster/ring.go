// Package cluster turns N independent irshared nodes into one fault-
// tolerant service. A Router consistent-hashes the mechanism-scoped
// canonical instance key of each request (server.PlacementKey — the same
// derivation the backends use for caches, batches, and job addresses)
// across the member nodes, so a given instance always lands where its cache
// is warm and its durable jobs live. Health probes drive membership, failed
// requests fail over to the next ring replica, durable jobs are placed
// under WAL-persisted TTL leases that survive router restarts and re-place
// work from a dead node's last observed checkpoint, and certificate-bearing
// answers are re-checked (solver-free) before being forwarded — a backend
// caught lying is quarantined on the spot.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over the static seed node set. Every node
// is always on the ring — aliveness filters selection, not placement — so a
// node bouncing dead and alive never reshuffles keys between the survivors:
// its keys spill to the next replica while it is down and come straight
// back when it recovers.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node string
}

// hash64 is FNV-64a with a murmur-style avalanche finalizer. Raw FNV of
// strings that differ only in trailing digits ("node#0".."node#63", or
// canonical keys with a numeric tail) lands in a narrow band — the last
// absorption steps spread a one-character difference across far fewer than
// 64 bits — which would collapse a node's vnodes into one tight cluster and
// defeat the ring's load spreading. The finalizer makes nearby inputs
// uncorrelated.
func hash64(s string) uint64 {
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

// newRing places every node at vnodes positions. Node order in the input
// does not matter: positions depend only on (node, index), so every router
// over the same seed list agrees on placement.
func newRing(nodes []string, vnodes int) *ring {
	r := &ring{nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	for _, n := range r.nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// sequence returns all distinct nodes in ring order starting at key's
// successor: sequence(key)[0] is the primary placement, [1] the first
// failover replica, and so on through every member exactly once.
func (r *ring) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].hash >= h })
	seen := make(map[string]bool, len(r.nodes))
	seq := make([]string, 0, len(r.nodes))
	for k := 0; k < len(r.points) && len(seq) < len(r.nodes); k++ {
		p := r.points[(i+k)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			seq = append(seq, p.node)
		}
	}
	return seq
}
