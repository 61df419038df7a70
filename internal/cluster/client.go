package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bioperf5/internal/server"
)

// Client speaks the bioperf5 serve API to one worker: readiness
// probes, the version handshake, and streamed cell batches.  Dispatch
// is retried on transport errors and on 429/503 — the worker's
// admission control saying "not now" — honoring the server's
// Retry-After hint with a cap, falling back to exponential backoff
// when no hint arrives.  Anything else (4xx validation errors, a
// mid-stream decode failure) is returned to the coordinator, which
// owns the decision to requeue or fail.
type Client struct {
	// Base is the worker's base URL, e.g. "http://host:8080".
	Base string
	// HTTP is the transport; nil means a client with no overall
	// timeout (batches are bounded by the request context instead, so
	// a long cold sweep is not cut off mid-stream).
	HTTP *http.Client
	// Retries bounds dispatch re-attempts after a transport error or
	// 429/503; values < 0 mean 0, the zero value means 4.
	Retries int
	// RetryBackoff is the base of the exponential backoff used when
	// the server sends no Retry-After hint; the zero value means
	// 250ms.
	RetryBackoff time.Duration
	// MaxRetryAfter caps every retry delay, hinted or computed, so a
	// confused server cannot park the fleet; the zero value means 15s.
	MaxRetryAfter time.Duration
	// OnRetry, when non-nil, observes every retry delay — the
	// coordinator counts them into cluster stats.
	OnRetry func(delay time.Duration)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

func (c *Client) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 4
	}
	return c.Retries
}

// Ready probes GET /readyz; nil means the worker is accepting work.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	// Bounded drain: a readiness probe has a tiny body, and a confused
	// or adversarial worker must not be able to stream forever.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker %s not ready: %s", c.Base, resp.Status)
	}
	return nil
}

// handshakeTimeout bounds one attempt of the version handshake.
const handshakeTimeout = 10 * time.Second

// Version fetches GET /v1/version — the schema handshake the
// coordinator requires before dispatching any work.  The exchange is
// small and idempotent, so every failure is retried: a transient
// refusal (a chaotic link, a worker still binding its socket) must not
// abort the whole sweep.
func (c *Client) Version(ctx context.Context) (server.VersionInfo, error) {
	var v server.VersionInfo
	err := c.retry(ctx, func(int) error {
		actx, cancel := context.WithTimeout(ctx, handshakeTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(actx, http.MethodGet, c.Base+"/v1/version", nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return retryable{err, nil}
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return retryable{fmt.Errorf("worker %s: GET /v1/version: %s", c.Base, resp.Status), resp}
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&v); err != nil {
			return retryable{fmt.Errorf("worker %s: bad version response: %w", c.Base, err), nil}
		}
		return nil
	})
	return v, err
}

// Batch POSTs cells to /v1/cells:batch and streams the JSONL response,
// calling onItem for every line as it arrives.  Retries happen only
// before the stream starts (transport failure, 429/503); once items
// are flowing, an error is returned as-is and the coordinator requeues
// whatever never arrived — re-delivered items are harmless under its
// first-result-wins dedup.
func (c *Client) Batch(ctx context.Context, cells []server.CellRequest, onItem func(server.BatchItem)) error {
	body, err := json.Marshal(server.BatchRequest{Cells: cells})
	if err != nil {
		return err
	}
	return c.retry(ctx, func(attempt int) error {
		// Propagate the coordinator's deadline so a partitioned worker
		// cannot hold the cells past the sweep deadline: the server
		// parses ?timeout= into its own request context.
		u := c.Base + "/v1/cells:batch"
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem > 0 {
				u += "?timeout=" + rem.Round(time.Millisecond).String()
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http().Do(req)
		if err != nil {
			return retryable{fmt.Errorf("worker %s: %w", c.Base, err), nil}
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			io.Copy(io.Discard, resp.Body)
			return retryable{fmt.Errorf("worker %s: %s after %d attempts", c.Base, resp.Status, attempt+1), resp}
		default:
			return fmt.Errorf("worker %s: POST /v1/cells:batch: %s: %s", c.Base, resp.Status, readError(resp.Body))
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var item server.BatchItem
			if err := dec.Decode(&item); err == io.EOF {
				return nil
			} else if err != nil {
				return fmt.Errorf("worker %s: batch stream: %w", c.Base, err)
			}
			onItem(item)
		}
	})
}

// retryable marks a failed attempt the retry loop may repeat: a
// transport error, or the worker's admission control saying "not now".
type retryable struct {
	error
	hint *http.Response // carries Retry-After when the worker sent one
}

// retry runs attempt until it succeeds, fails for good, or has failed
// retryably more often than the budget allows.
func (c *Client) retry(ctx context.Context, attempt func(n int) error) error {
	for n := 0; ; n++ {
		err := attempt(n)
		r, again := err.(retryable)
		if !again {
			return err
		}
		if n >= c.retries() || ctx.Err() != nil {
			return r.error
		}
		if err := c.sleep(ctx, c.retryDelay(n, r.hint)); err != nil {
			return err
		}
	}
}

// retryDelay picks the wait before the next dispatch attempt: the
// server's Retry-After hint when it sent one (it knows its own queue),
// else exponential backoff from RetryBackoff — both capped at
// MaxRetryAfter.  Retry-After accepts both RFC 9110 forms: delay
// seconds and an HTTP-date.
func (c *Client) retryDelay(attempt int, resp *http.Response) time.Duration {
	max := c.MaxRetryAfter
	if max <= 0 {
		max = 15 * time.Second
	}
	var d time.Duration
	if resp != nil {
		if v := strings.TrimSpace(resp.Header.Get("Retry-After")); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				d = time.Duration(secs) * time.Second
			} else if at, err := http.ParseTime(v); err == nil {
				if until := time.Until(at); until > 0 {
					d = until
				}
			}
		}
	}
	if d == 0 {
		base := c.RetryBackoff
		if base <= 0 {
			base = 250 * time.Millisecond
		}
		if attempt > 6 {
			attempt = 6 // past here the cap decides anyway
		}
		d = base << uint(attempt)
	}
	if d > max {
		d = max
	}
	if c.OnRetry != nil {
		c.OnRetry(d)
	}
	return d
}

// sleep waits for d or the context, whichever ends first.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// readError extracts the message from an API error body, falling back
// to the raw bytes for non-JSON answers.
func readError(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(b))
}
