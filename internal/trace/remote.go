package trace

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"time"

	"bioperf5/internal/telemetry"
)

// Remote trace tier.  With StoreOptions.Upstream set, the store probes
// a peer's /v1/traces endpoint after a local disk miss and pushes
// fresh captures back, so one node's functional execution is every
// node's timing replay.  Like the scheduler's remote result cache the
// tier is strictly best-effort — any failure degrades to a miss and
// the store captures locally — and every downloaded trace is decoded,
// checksum-verified and matched against the requested key before use.

// remoteTraceTimeout bounds one upstream round trip.  Traces are
// larger than result entries (2 bytes/instruction at scale 1) but
// still transfer in well under this on any sane link.
const remoteTraceTimeout = 30 * time.Second

// maxRemoteTraceBytes bounds an upstream response body.
const maxRemoteTraceBytes = 64 << 20

type remoteTier struct {
	base string
	hc   *http.Client

	mHits, mMisses, mErrors, mPuts *telemetry.Counter
}

func newRemoteTier(base string, transport http.RoundTripper, reg *telemetry.Registry) *remoteTier {
	return &remoteTier{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Timeout: remoteTraceTimeout, Transport: transport},

		mHits:   reg.Counter("trace.remote.hits"),
		mMisses: reg.Counter("trace.remote.misses"),
		mErrors: reg.Counter("trace.remote.errors"),
		mPuts:   reg.Counter("trace.remote.puts"),
	}
}

func (r *remoteTier) url(hash string) string {
	return r.base + "/v1/traces/" + hash
}

// load fetches and verifies the trace at hash; anything short of a
// checksum-clean file answering key is a miss.
func (r *remoteTier) load(hash string, key Key) (*Trace, bool) {
	resp, err := r.hc.Get(r.url(hash))
	if err != nil {
		r.mErrors.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		r.mMisses.Add(1)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		r.mErrors.Add(1)
		return nil, false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteTraceBytes))
	if err != nil {
		r.mErrors.Add(1)
		return nil, false
	}
	t, err := DecodeReplayable(b)
	if err != nil || !key.Matches(t.Meta) {
		r.mErrors.Add(1)
		return nil, false
	}
	r.mHits.Add(1)
	return t, true
}

// store pushes one captured trace upstream, best-effort.
func (r *remoteTier) store(hash string, t *Trace) {
	b, err := t.EncodeFile()
	if err != nil {
		r.mErrors.Add(1)
		return
	}
	req, err := http.NewRequest(http.MethodPut, r.url(hash), bytes.NewReader(b))
	if err != nil {
		r.mErrors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.hc.Do(req)
	if err != nil {
		r.mErrors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		r.mErrors.Add(1)
		return
	}
	r.mPuts.Add(1)
}
