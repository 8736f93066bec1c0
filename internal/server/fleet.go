package server

import (
	"bytes"
	"io"
	"net/http"

	"lightwsp/internal/fleet"
)

// This file is the server side of fleet routing: a node that receives a
// request whose routing key hashes to another member forwards it there, one
// hop at most. The lb usually lands requests on their owner directly, so
// forwarding is the correction path — a stale lb view, a client talking to
// a node directly, or a membership disagreement mid-rehash. Serving locally
// is always *correct* (the shared L2 makes any node able to resolve any
// key); forwarding is a warmth optimization, so every failure here falls
// back to local serving rather than erroring.

// bufferBody reads the request body once, with fleet.ReadBody, and puts the
// bytes back so the handler decodes exactly what a forward would send.
func bufferBody(r *http.Request) ([]byte, error) {
	body, err := fleet.ReadBody(r)
	if err != nil {
		return nil, err
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	return body, nil
}

// forwardOwned routes a keyed request to its ring owner when that is a
// different node, reporting whether a peer wrote the response. The key is
// fleet.RouteKey's, the lb's own rule; an unkeyed request is served here.
// It walks the preference ladder top-down: the first entry that is this
// node means "serve locally"; an unreachable peer is skipped (and counted)
// rather than surfaced, because local serving is always a correct fallback.
func (s *Server) forwardOwned(w http.ResponseWriter, r *http.Request, body []byte) bool {
	if s.ring == nil {
		return false
	}
	key := fleet.RouteKey(r.Method, r.URL.Path, body)
	if key == "" {
		return false
	}
	if r.Header.Get(fleet.ForwardedHeader) != "" {
		// Already forwarded once: a second disagreement means the peers'
		// membership views differ, so serve locally and break the loop.
		s.forwardsIn.Add(1)
		return false
	}
	for _, owner := range s.ring.Owners(key) {
		if owner == s.self {
			// Reached our own rank: serve locally.
			break
		}
		r.Header.Set(fleet.ForwardedHeader, s.self)
		// The peer stamps its own identity on the response; drop the one
		// the middleware stamped for the local-serving case.
		w.Header().Del(fleet.ServedByHeader)
		written, err := fleet.Proxy(w, r, body, owner, s.fleetHC)
		if written {
			s.forwardsOut.Add(1)
			if ri := reqInfoFrom(r.Context()); ri != nil {
				ri.source = "forwarded:" + owner
			}
			if err != nil {
				panic(http.ErrAbortHandler) // the stream was cut; see fleet.Proxy
			}
			return true
		}
		s.forwardFallbacks.Add(1)
		s.log.Warn("fleet peer unreachable; trying next owner",
			"key", key, "peer", owner, "error", err)
	}
	// Serving locally (own rank reached, or every better-ranked peer was
	// unreachable): restore the stamps the forward attempts changed.
	w.Header().Set(fleet.ServedByHeader, s.self)
	r.Header.Del(fleet.ForwardedHeader)
	return false
}
