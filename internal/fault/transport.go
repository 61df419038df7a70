package fault

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxDupLine caps how many bytes of the first JSONL line a DupItem
// decision will buffer for replay; longer lines pass through unfaulted.
const maxDupLine = 1 << 20

// cutAfter is how many body bytes a Cut decision forwards before
// severing the stream, enough to put the consumer mid-line.
const cutAfter = 100

// maxConsecutive caps failure-injecting decisions in a row per request
// key before a forced clean pass.
const maxConsecutive = 3

// corruptSpan is how many leading body bytes a CorruptLine decision
// XORs.  32 bytes of 0xA5 turns `{"schema":...` into garbage that no
// JSON or JSONL consumer accepts.
const corruptSpan = 32

// ChaosTransport is an http.RoundTripper that deterministically
// injects network faults around http.DefaultTransport, driven by a
// Plan's wire-site rates.  Decisions are pure functions of (plan seed, site,
// request key, per-key request ordinal), so a chaotic run reproduces
// exactly under the same seed and request order per key.  The request
// key is "METHOD host path": each worker endpoint gets its own fault
// stream regardless of global interleaving.
//
// Convergence has two guards.  The plan's Times budget stops injecting
// once a key's ordinal reaches it, and after maxConsecutive
// consecutively failed requests on one key the next passes clean, so a
// bounded client retry budget always suffices.  Blackout windows are
// exempt from both: a partition does not care how often you knock.
type ChaosTransport struct {
	// Plan supplies the wire-site decisions; nil or a plan with no
	// network faults makes the transport a pass-through.
	Plan *Plan

	mu       sync.Mutex
	keys     map[string]*keyState
	hosts    map[string]int
	injected atomic.Uint64
}

type keyState struct {
	ordinal int // requests seen for this key
	streak  int // consecutive failure-injecting decisions
}

// Injected reports how many faults the transport has injected so far.
func (t *ChaosTransport) Injected() uint64 { return t.injected.Load() }

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.Plan
	if p == nil || !p.HasNetworkFaults() {
		return http.DefaultTransport.RoundTrip(req)
	}
	host := req.URL.Host
	key := req.Method + " " + host + req.URL.Path

	t.mu.Lock()
	if t.keys == nil {
		t.keys = make(map[string]*keyState)
		t.hosts = make(map[string]int)
	}
	hostOrd := t.hosts[host]
	t.hosts[host]++
	ks := t.keys[key]
	if ks == nil {
		ks = &keyState{}
		t.keys[key] = ks
	}
	ord := ks.ordinal
	ks.ordinal++
	forcedClean := ks.streak >= maxConsecutive
	if forcedClean {
		ks.streak = 0
	}
	t.mu.Unlock()

	// Blackout windows model a partition: absolute, streak-exempt.
	if p.BlackoutTarget != "" && p.BlackoutFor > 0 &&
		strings.Contains(host, p.BlackoutTarget) &&
		hostOrd >= p.BlackoutFrom && hostOrd < p.BlackoutFrom+p.BlackoutFor {
		t.injected.Add(1)
		return nil, fmt.Errorf("fault: injected blackout of %q (request %d in window %d+%d): connection refused",
			host, hostOrd, p.BlackoutFrom, p.BlackoutFor)
	}

	if !forcedClean {
		switch d := p.Decide(SiteDial, key, ord); d.Kind {
		case Refuse:
			t.bumpStreak(key)
			t.injected.Add(1)
			return nil, fmt.Errorf("fault: injected dial refusal for %s: connection refused", key)
		case Latency:
			t.injected.Add(1)
			select {
			case <-time.After(d.Delay):
			case <-req.Context().Done():
				return nil, req.Context().Err()
			}
		}
	}

	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if forcedClean {
		return resp, nil
	}

	if p.Decide(SiteResponse, key, ord).Kind == HTTP5xx {
		t.bumpStreak(key)
		t.injected.Add(1)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		body := "fault: injected 503\n"
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         resp.Proto,
			ProtoMajor:    resp.ProtoMajor,
			ProtoMinor:    resp.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}

	switch p.Decide(SiteStream, key, ord).Kind {
	case Cut:
		t.bumpStreak(key)
		t.injected.Add(1)
		resp.Body = &cutBody{rc: resp.Body, remaining: cutAfter}
	case CorruptLine:
		t.bumpStreak(key)
		t.injected.Add(1)
		resp.Body = &corruptBody{rc: resp.Body, remaining: corruptSpan}
	case DupItem:
		t.resetStreak(key)
		t.injected.Add(1)
		resp.Body = &dupBody{rc: resp.Body}
	default:
		t.resetStreak(key)
	}
	return resp, nil
}

func (t *ChaosTransport) bumpStreak(key string) {
	t.mu.Lock()
	t.keys[key].streak++
	t.mu.Unlock()
}

func (t *ChaosTransport) resetStreak(key string) {
	t.mu.Lock()
	t.keys[key].streak = 0
	t.mu.Unlock()
}

// cutBody forwards a handful of bytes, then severs the stream.
type cutBody struct {
	rc        io.ReadCloser
	remaining int
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= n
	if err == io.EOF {
		// The stream was shorter than the cut point; sever anyway so
		// the consumer sees a torn connection, not a clean finish.
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *cutBody) Close() error { return b.rc.Close() }

// corruptBody XORs the leading bytes of the stream with 0xA5.
type corruptBody struct {
	rc        io.ReadCloser
	remaining int
}

func (b *corruptBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	for i := 0; i < n && b.remaining > 0; i++ {
		p[i] ^= 0xA5
		b.remaining--
	}
	return n, err
}

func (b *corruptBody) Close() error { return b.rc.Close() }

// dupBody buffers the first newline-terminated line and replays it
// once after the underlying stream ends, modelling at-least-once
// delivery of one batch item.
type dupBody struct {
	rc       io.ReadCloser
	line     []byte
	complete bool // first line fully captured
	replay   *bytes.Reader
}

func (b *dupBody) Read(p []byte) (int, error) {
	if b.replay != nil {
		return b.replay.Read(p)
	}
	n, err := b.rc.Read(p)
	if !b.complete && n > 0 {
		if i := bytes.IndexByte(p[:n], '\n'); i >= 0 {
			b.line = append(b.line, p[:i+1]...)
			b.complete = true
		} else if len(b.line)+n <= maxDupLine {
			b.line = append(b.line, p[:n]...)
		} else {
			b.line = nil
			b.complete = true // over cap: give up on duplicating
		}
	}
	if err == io.EOF && b.complete && len(b.line) > 0 {
		b.replay = bytes.NewReader(b.line)
		b.line = nil
		if n > 0 {
			return n, nil
		}
		return b.replay.Read(p)
	}
	return n, err
}

func (b *dupBody) Close() error { return b.rc.Close() }
