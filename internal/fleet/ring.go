// Package fleet shards the lightwsp serving daemon across replicas: a
// rendezvous-hash ring decides which node owns each routing key (run keys,
// session IDs), nodes forward requests that land on the wrong replica, and
// the lb Router fronts the fleet with health-aware admission. The design
// goal is cache coherence on the cheap — no membership gossip, no
// rebalancing protocol. Ownership is a pure function of (healthy node set,
// key); losing a node simply re-evaluates that function, and the shared L2
// store makes the rehash cheap because any node can serve any key's bytes.
package fleet

import (
	"encoding/json"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
)

// Ring is a rendezvous (highest-random-weight) hash ring over node base
// URLs. Unlike a ketama ring it needs no virtual nodes to balance, and
// removing a node moves only that node's keys — the property the fleet's
// warm caches depend on. A Ring is immutable; derive a new one when
// membership changes.
type Ring struct {
	nodes []string
}

// NewRing builds a ring over the given node identities (base URLs). Order
// does not matter; duplicates are dropped.
func NewRing(nodes []string) *Ring {
	seen := map[string]bool{}
	var uniq []string
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	return &Ring{nodes: uniq}
}

// Nodes returns the ring's members, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// score is the rendezvous weight of (node, key): FNV-1a over the pair with
// a separator no URL contains. Deterministic across processes — every node
// and the lb compute identical ownership without talking to each other.
func score(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// Owner returns the node that owns key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	var best string
	var bestScore uint64
	for _, n := range r.nodes {
		if s := score(n, key); best == "" || s > bestScore || (s == bestScore && n < best) {
			best, bestScore = n, s
		}
	}
	return best
}

// Owners returns every node in preference order for key — the failover
// ladder: Owners(key)[0] is the owner, [1] takes over if it dies, and so
// on. The returned slice is freshly allocated.
func (r *Ring) Owners(key string) []string {
	type ranked struct {
		node string
		s    uint64
	}
	rs := make([]ranked, len(r.nodes))
	for i, n := range r.nodes {
		rs[i] = ranked{n, score(n, key)}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].s != rs[j].s {
			return rs[i].s > rs[j].s
		}
		return rs[i].node < rs[j].node
	})
	out := make([]string, len(rs))
	for i, x := range rs {
		out[i] = x.node
	}
	return out
}

// RunRouteKey is the routing key of a run-shaped request. It hashes the
// workload identity, not the full canonical run key: the full key needs
// resolved machine/compiler configs that the lb cannot compute from the
// wire request, and suite/app/scheme is exactly the warmth the cache
// shards by.
func RunRouteKey(suite, app, scheme string) string {
	return "run|" + suite + "/" + app + "/" + scheme
}

// SessionRouteKey is the routing key of a session request: sessions are
// single-writer, so every operation on one ID must land on its owner.
func SessionRouteKey(id string) string { return "session|" + id }

// RouteKey names the ring key of a request: the one rule by which the lb
// and every node pick a request's owner, so the two tiers always agree.
// The four run routes key by the raw suite, app and scheme fields of the
// body (no tier resolves defaults first); session routes key by the ID in
// the path, or in a create's body. An empty key means any node may serve
// the request: a create without an ID is keyed once its node mints one.
func RouteKey(method, path string, body []byte) string {
	if rest, ok := strings.CutPrefix(path, "/v1/session/"); ok {
		if id, _, _ := strings.Cut(rest, "/"); id != "" {
			return SessionRouteKey(id)
		}
		return ""
	}
	var req struct {
		ID     string `json:"id"`
		Suite  string `json:"suite"`
		App    string `json:"app"`
		Scheme string `json:"scheme"`
	}
	switch {
	case path == "/v1/session" && method == http.MethodPost:
		json.Unmarshal(body, &req)
		if req.ID == "" {
			return ""
		}
		return SessionRouteKey(req.ID)
	case path == "/v1/run" || path == "/v1/run/stream" ||
		path == "/v1/run-with-failure" || path == "/v1/crashfuzz":
		json.Unmarshal(body, &req)
		return RunRouteKey(req.Suite, req.App, req.Scheme)
	}
	return ""
}
