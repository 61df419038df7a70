package cas

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"bioperf5/internal/telemetry"
)

// readCapped reads a body of at most max bytes; a longer one is an
// error, never a silently truncated blob.
func readCapped(r io.Reader, max int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, max+1))
	if err == nil && int64(len(b)) > max {
		err = fmt.Errorf("body exceeds %d bytes", max)
	}
	return b, err
}

// Client is the upstream tier of one kind: GET after a local miss, PUT
// after a local compute, against a peer's /v1/<Route>/{key}.  It is
// strictly best-effort — an unreachable hub, an HTTP error, an oversize
// or unverifiable body all degrade to a miss — so a lying upstream can
// cost a recompute, never a wrong result.  A nil *Client is the absent
// tier.
type Client struct {
	kind Kind
	base string // upstream base URL, no trailing slash
	hc   *http.Client

	hits, misses, errs, puts *telemetry.Counter
}

// NewClient returns the client of the hub at base, or nil when base is
// empty.  Its four counters are <prefix>.hits, .misses, .errors, .puts.
func NewClient(k Kind, base string, rt http.RoundTripper, reg *telemetry.Registry, prefix string) *Client {
	if base == "" {
		return nil
	}
	return &Client{
		kind: k,
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: k.Timeout, Transport: rt},

		hits:   reg.Counter(prefix + ".hits"),
		misses: reg.Counter(prefix + ".misses"),
		errs:   reg.Counter(prefix + ".errors"),
		puts:   reg.Counter(prefix + ".puts"),
	}
}

// do sends one request; a transport failure is counted and reported as
// a nil response.
func (c *Client) do(ctx context.Context, method, hash string, body io.Reader) *http.Response {
	req, err := http.NewRequestWithContext(ctx, method, c.base+"/v1/"+c.kind.Route+"/"+hash, body)
	if err != nil {
		c.errs.Add(1)
		return nil
	}
	if body != nil {
		req.Header.Set("Content-Type", c.kind.ContentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.errs.Add(1)
		return nil
	}
	return resp
}

// Get fetches the blob at hash and hands it to decode, as Dir.Load
// does.  Only a body decode accepts is a hit; a 404 is a miss; anything
// else is a miss counted as an error.  ctx and the kind's timeout both
// bound the round trip.
func (c *Client) Get(ctx context.Context, hash string, decode func(b []byte) error) bool {
	if c == nil {
		return false
	}
	resp := c.do(ctx, http.MethodGet, hash, nil)
	if resp == nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusNotFound {
			c.misses.Add(1)
		} else {
			c.errs.Add(1)
		}
		return false
	}
	b, err := readCapped(resp.Body, c.kind.MaxBytes)
	if err == nil {
		err = decode(b)
	}
	if err != nil {
		c.errs.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
}

// Put pushes one blob upstream; a failure only costs the peers a
// recompute.
func (c *Client) Put(ctx context.Context, hash string, body []byte) {
	if c == nil {
		return
	}
	resp := c.do(ctx, http.MethodPut, hash, bytes.NewReader(body))
	if resp == nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		c.errs.Add(1)
		return
	}
	c.puts.Add(1)
}

// Counts returns the hit, put and error counters for the owner's stats.
func (c *Client) Counts() (hits, puts, errs uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Value(), c.puts.Value(), c.errs.Value()
}

// Source is what a hub serves for one kind: verified bytes out,
// verified bytes in.  *Dir is one; trace.Store puts its memory tier in
// front of one.
type Source interface {
	Entry(hash string) ([]byte, bool)
	Install(hash string, body []byte) error
}

// handler is the hub side of Client: GET and PUT /v1/<Route>/{key}.
// The endpoints are deliberately dumb — all verification is the
// Source's, so a confused or malicious client can waste a PUT but never
// poison a blob.
type handler struct {
	kind Kind
	src  Source
	fail func(w http.ResponseWriter, status int, format string, args ...any)

	hits, misses, puts *telemetry.Counter
}

// Register mounts the kind's endpoints on mux, counting under
// <prefix>.<Route>.hits, .misses and .puts; fail writes the server's
// error body.
func Register(mux *http.ServeMux, k Kind, src Source, reg *telemetry.Registry, prefix string,
	fail func(w http.ResponseWriter, status int, format string, args ...any)) {
	prefix += "." + k.Route
	h := &handler{kind: k, src: src, fail: fail,
		hits: reg.Counter(prefix + ".hits"), misses: reg.Counter(prefix + ".misses"), puts: reg.Counter(prefix + ".puts")}
	mux.HandleFunc("GET /v1/"+k.Route+"/{key}", h.get)
	mux.HandleFunc("PUT /v1/"+k.Route+"/{key}", h.put)
}

// key extracts and checks the address, answering 400 itself when bad.
func (h *handler) key(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.PathValue("key")
	if !ValidKey(key) {
		h.fail(w, http.StatusBadRequest, "bad %s key %q: want a hex SHA-256", h.kind.Route, key)
		return "", false
	}
	return key, true
}

func (h *handler) get(w http.ResponseWriter, r *http.Request) {
	key, ok := h.key(w, r)
	if !ok {
		return
	}
	b, ok := h.src.Entry(key)
	if !ok {
		h.misses.Add(1)
		h.fail(w, http.StatusNotFound, "nothing under /v1/%s/%s", h.kind.Route, key)
		return
	}
	h.hits.Add(1)
	w.Header().Set("Content-Type", h.kind.ContentType)
	w.Write(b)
}

func (h *handler) put(w http.ResponseWriter, r *http.Request) {
	key, ok := h.key(w, r)
	if !ok {
		return
	}
	body, err := readCapped(r.Body, h.kind.MaxBytes)
	if err != nil {
		h.fail(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	switch err := h.src.Install(key, body); {
	case errors.Is(err, ErrNoDir):
		// This server cannot act as a durable hub; not the client's fault.
		h.fail(w, http.StatusServiceUnavailable, "%v (start the hub with -cache-dir)", err)
	case err != nil:
		h.fail(w, http.StatusBadRequest, "%v", err)
	default:
		h.puts.Add(1)
		w.WriteHeader(http.StatusNoContent)
	}
}
