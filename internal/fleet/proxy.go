package fleet

import (
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// ForwardedHeader marks a request that already crossed one node hop. A
// node receiving it always serves locally — the loop guard that keeps a
// stale ring view (two nodes each believing the other owns a key) from
// bouncing a request forever. One hop is enough: the forwarder computed
// ownership over the same deterministic ring, so a second disagreement
// means the membership views differ and serving locally is still correct
// (the shared L2 store makes any node able to serve any key).
const ForwardedHeader = "X-LightWSP-Forwarded"

// ServedByHeader names the node that actually served a response — the
// observable half of the forwarding contract, used by tests, the lb's
// logs, and operators staring at curl -i.
const ServedByHeader = "X-LightWSP-Served-By"

// hopHeaders are dropped when proxying (RFC 9110 connection-scoped).
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// Proxy forwards r to the node at targetBase (scheme://host[:port]),
// streaming the response — NDJSON event streams flush line by line. It
// reports whether anything was written to w: when it returns
// (written=false, err!=nil) the target was unreachable before a single
// byte went out, and the caller may safely fall back to handling the
// request itself.
//
// The caller is responsible for setting ForwardedHeader on r (or its body
// replacement) before calling; Proxy itself only moves bytes.
func Proxy(w http.ResponseWriter, r *http.Request, targetBase string, hc *http.Client) (written bool, err error) {
	target, err := url.Parse(strings.TrimRight(targetBase, "/"))
	if err != nil {
		return false, err
	}
	outURL := *r.URL
	outURL.Scheme = target.Scheme
	outURL.Host = target.Host

	out, err := http.NewRequestWithContext(r.Context(), r.Method, outURL.String(), r.Body)
	if err != nil {
		return false, err
	}
	out.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}
	out.ContentLength = r.ContentLength

	resp, err := hc.Do(out)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()

	dst := w.Header()
	for k, vv := range resp.Header {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	copyBody(w, resp.Body, resp.ContentLength < 0)
	return true, nil
}

// copyBufs holds the buffers copyBody moves response bytes through, so a
// proxied request does not allocate one.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// copyBody streams src to w. With flush set — a body of unknown length,
// such as an NDJSON event stream — it flushes after every read, so a long
// run's events cross the proxy as they happen instead of a run's worth at
// a time. A fixed-length body is copied without per-chunk flushes.
func copyBody(w http.ResponseWriter, src io.Reader, flush bool) {
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	var f http.Flusher
	if flush {
		f, _ = w.(http.Flusher)
	}
	for {
		n, err := src.Read(buf[:])
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
