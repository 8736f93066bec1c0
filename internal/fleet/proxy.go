package fleet

import (
	"bytes"
	"fmt"
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

// maxBody bounds the request body a hop buffers. Every routed request
// body is a small JSON document; streams flow the other way.
const maxBody = 8 << 20

// ReadBody reads r's body whole, so that a hop can name the request's
// owner from it and send the same bytes to every node it tries. A body
// larger than maxBody is an error.
func ReadBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if len(body) > maxBody {
		return nil, fmt.Errorf("request body larger than %d bytes", maxBody)
	}
	return body, nil
}

// Proxy sends r, with body as its body, to the node at targetBase
// (scheme://host[:port]) and streams the response back — NDJSON event
// streams flush line by line. It reports whether anything was written to
// w: when it returns (written=false, err!=nil) nothing went out, and the
// caller may try another node or serve the request itself. When it returns
// (written=true, err!=nil) the target broke the response off after its
// status went out: the caller counts the forward, then aborts w's response
// with panic(http.ErrAbortHandler), as httputil.ReverseProxy does, so the
// client sees a broken stream instead of a short one that ends cleanly.
//
// A forwarding node sets ForwardedHeader on r before calling; Proxy itself
// only moves bytes.
func Proxy(w http.ResponseWriter, r *http.Request, body []byte, targetBase string, hc *http.Client) (written bool, err error) {
	target, err := url.Parse(strings.TrimRight(targetBase, "/"))
	if err != nil {
		return false, err
	}
	outURL := *r.URL
	outURL.Scheme = target.Scheme
	outURL.Host = target.Host

	out, err := http.NewRequestWithContext(r.Context(), r.Method, outURL.String(), bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	out.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		out.Header.Del(h)
	}

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
	return true, copyBody(w, resp.Body, resp.ContentLength < 0)
}

// copyBufs holds the buffers copyBody moves response bytes through, so a
// proxied request does not allocate one.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// copyBody streams src to w. With flush set — a body of unknown length,
// such as an NDJSON event stream — it flushes after every read, so a long
// run's events cross the proxy as they happen instead of a run's worth at
// a time. A fixed-length body is copied without per-chunk flushes. It
// returns src's error if src fails before its end; a failed write to w
// (the client went away) ends the copy without one.
func copyBody(w http.ResponseWriter, src io.Reader, flush bool) error {
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
				return nil
			}
			if f != nil {
				f.Flush()
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
