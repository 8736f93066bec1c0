package fleet

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// proxyTo serves every request by proxying it to upstream.
func proxyTo(t *testing.T, upstream string) *httptest.Server {
	hc := &http.Client{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := ReadBody(r)
		if err != nil {
			t.Errorf("read body: %v", err)
			return
		}
		if _, err := Proxy(w, r, body, upstream, hc); err != nil {
			t.Errorf("proxy: %v", err)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestProxyFixedLengthBody: a body with a Content-Length crosses the proxy
// byte-identical and keeps its length. The second body is shorter than the
// first, so a reused copy buffer that leaked old bytes would show.
func TestProxyFixedLengthBody(t *testing.T) {
	bodies := [][]byte{
		bytes.Repeat([]byte("0123456789abcdef"), 6000), // 96000 B: several copy reads
		[]byte(`{"suite":"CPU2006","app":"hmmer"}` + "\n"),
	}
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(r.URL.Query().Get("i"))
		w.Header().Set("Content-Length", strconv.Itoa(len(bodies[i])))
		w.Write(bodies[i])
	}))
	defer upstream.Close()
	lb := proxyTo(t, upstream.URL)

	for i := range bodies {
		resp, err := http.Get(lb.URL + "/v1/blob?i=" + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(bodies[i])) {
			t.Fatalf("body %d: Content-Length %d, want %d", i, resp.ContentLength, len(bodies[i]))
		}
		if !bytes.Equal(got, bodies[i]) {
			t.Fatalf("body %d: %d bytes arrived, differing from the %d sent", i, len(got), len(bodies[i]))
		}
	}
}

// TestProxyStreamsLinesWithoutLength: an NDJSON body without a
// Content-Length reaches the client one line at a time — the client reads
// line 1 before the upstream may write line 2.
func TestProxyStreamsLinesWithoutLength(t *testing.T) {
	next := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"seq":1}`+"\n")
		w.(http.Flusher).Flush()
		select {
		case <-next:
		case <-r.Context().Done():
			return
		}
		io.WriteString(w, `{"seq":2}`+"\n")
	}))
	defer upstream.Close()
	lb := proxyTo(t, upstream.URL)

	// The timeout ends the exchange if line 1 waits on line 2, which the
	// upstream writes only once line 1 arrived.
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(lb.URL + "/v1/run/stream")
	if err != nil {
		t.Fatalf("no response before line 2 was written: %v", err)
	}
	defer resp.Body.Close()
	if resp.ContentLength != -1 {
		t.Fatalf("Content-Length %d, want none", resp.ContentLength)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || line != `{"seq":1}`+"\n" {
		t.Fatalf("line 1 = %q, %v", line, err)
	}
	close(next)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != `{"seq":2}`+"\n" {
		t.Fatalf("after line 1 got %q", rest)
	}
}
