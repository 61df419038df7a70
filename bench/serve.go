package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bioperf5/internal/cpu"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
)

// spanHeader carries the client span that caused a request, so the
// handler span recorded by the bench's middleware can name its parent.
const spanHeader = "X-Bench-Span"

// worker is one in-process `bioperf5 serve`: an engine, the server over
// it and a loopback listener.
type worker struct {
	eng *sched.Engine
	ts  *httptest.Server
	mw  *middleware // nil on an untraced run
}

// startWorker boots a worker with the given engine pool size.
// maxInflight <= 0 keeps the server's default admission bound.  On a
// traced run a bench-side middleware wraps the handler; parent and rep
// label the handler spans of requests that carry no span header.
func startWorker(workers, maxInflight int, rec *Recorder, parent, rep int) *worker {
	w := &worker{eng: sched.New(sched.Options{Workers: workers})}
	var h http.Handler = server.New(server.Options{Engine: w.eng, MaxInflight: maxInflight})
	if rec != nil {
		w.mw = &middleware{next: h, rec: rec, parent: parent, rep: rep}
		h = w.mw
	}
	w.ts = httptest.NewServer(h)
	return w
}

func (w *worker) close() {
	w.ts.Close()
	w.eng.Close()
}

// middleware times every request a worker handles, from outside the
// handler: one span per request, total busy time, and refusals.
type middleware struct {
	next        http.Handler
	rec         *Recorder
	parent, rep int

	busyNS   atomic.Int64
	rejected atomic.Int64
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// Flush keeps batch responses streaming through the wrapper.
func (s *statusWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := m.parent
	if id, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
		parent = id
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	sp := m.rec.Start("server.handler "+r.URL.Path, parent, m.rep)
	start := time.Now()
	m.next.ServeHTTP(sw, r)
	m.busyNS.Add(time.Since(start).Nanoseconds())
	m.rec.End(sp)
	if sw.status == http.StatusTooManyRequests || sw.status == http.StatusServiceUnavailable {
		m.rejected.Add(1)
	}
}

// ---- serve_hot ----

const (
	batchCells    = 8
	batchPoolSize = 256
	// serveInflight admits P concurrent batches with room to spare; the
	// server's default bound (4 x GOMAXPROCS) would refuse the second.
	serveInflight = 64
)

// batchPool draws the pool of batch requests: each names eight
// distinct cells of the hot set, by index.
func batchPool(seed int64, hot int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]int, batchPoolSize)
	for i := range pool {
		pool[i] = rng.Perm(hot)[:batchCells]
	}
	return pool
}

// request is one draw of a client's stream: a batch from the pool or a
// single cell of the hot set.
type request struct {
	batch bool
	index int
}

// stream is the endless request sequence of one client: 80% single
// cells, 20% batches, fixed by the seed and the client's number.
type stream struct {
	rng *rand.Rand
	hot int
}

func newStream(seed int64, client, hot int) *stream {
	return &stream{rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1)), hot}
}

func (s *stream) next() request {
	if s.rng.Intn(5) == 0 {
		return request{true, s.rng.Intn(batchPoolSize)}
	}
	return request{false, s.rng.Intn(s.hot)}
}

// served is the part of a cell response the bench checks.
type served struct {
	Stats struct {
		Aggregate struct {
			Counters cpu.Counters   `json:"counters"`
			Stalls   cpu.StallStack `json:"stall_stack"`
		} `json:"aggregate"`
	} `json:"stats"`
}

func (s *served) report() cpu.Report {
	return cpu.Report{Counters: s.Stats.Aggregate.Counters, Stalls: s.Stats.Aggregate.Stalls}
}

type servedItem struct {
	Index  int     `json:"index"`
	Status string  `json:"status"`
	Error  string  `json:"error"`
	Result *served `json:"result"`
}

// serveClient is the state serve_hot's clients share.
type serveClient struct {
	w       *worker
	http    *http.Client
	led     *ledger
	rec     *Recorder
	hot     []cell
	singles [][]byte // request body per hot cell
	pool    [][]int
	batches [][]byte // request body per pool entry
}

func (c *serveClient) post(path string, body []byte, span int) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, c.w.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// finish reads a response to its end, so the connection is reused, and
// closes it.
func finish(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// single asks for one cell and checks the answer.
func (c *serveClient) single(i, client int) sample {
	sp := c.rec.Start("client.cell", 0, client)
	defer c.rec.End(sp)
	start := time.Now()
	var got served
	resp, err := c.post("/v1/cells", c.singles[i], sp)
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&got)
		finish(resp)
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		c.led.fail("%s: served: %v", c.hot[i].ID(), err)
		return sample{ms: ms}
	}
	rep := got.report()
	c.led.see(c.hot[i], "served", rep)
	return sample{ms, rep.Counters.Instructions}
}

// batch asks for eight cells in one request and checks each answer.
func (c *serveClient) batch(i, client int) sample {
	sp := c.rec.Start("client.batch", 0, client)
	defer c.rec.End(sp)
	start := time.Now()
	s := sample{}
	answered := 0
	resp, err := c.post("/v1/cells:batch", c.batches[i], sp)
	if err == nil {
		lines := bufio.NewScanner(resp.Body)
		lines.Buffer(nil, 1<<20)
		for lines.Scan() {
			var item servedItem
			if err = json.Unmarshal(lines.Bytes(), &item); err != nil {
				break
			}
			if item.Status != "ok" || item.Result == nil || item.Index < 0 || item.Index >= batchCells {
				err = fmt.Errorf("item %d: status %q %s", item.Index, item.Status, item.Error)
				break
			}
			rep := item.Result.report()
			c.led.see(c.hot[c.pool[i][item.Index]], "served in a batch", rep)
			s.insns += rep.Counters.Instructions
			answered++
		}
		if err == nil {
			err = lines.Err()
		}
		finish(resp)
	}
	s.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	if err == nil && answered != batchCells {
		err = fmt.Errorf("%d of %d cells answered", answered, batchCells)
	}
	if err != nil {
		c.led.fail("batch %d: %v", i, err)
	}
	return s
}

// drive runs fn on P goroutines and merges their samples.
func drive(fn func(client int) []sample) []sample {
	per := make([][]sample, procs())
	var wg sync.WaitGroup
	for client := range per {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			per[client] = fn(client)
		}(client)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// newServeClient boots a worker and prepares the request bodies for
// the given hot set (at least eight cells).
func newServeClient(seed int64, hot []cell, led *ledger, rec *Recorder) (*serveClient, error) {
	p := procs()
	c := &serveClient{
		w:    startWorker(p, serveInflight, rec, 0, 0),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: p}},
		led:  led, rec: rec,
		hot:  hot,
		pool: batchPool(seed, len(hot)),
	}
	for _, h := range hot {
		body, err := json.Marshal(h.request(seed))
		if err != nil {
			c.close()
			return nil, err
		}
		c.singles = append(c.singles, body)
	}
	for _, idx := range c.pool {
		var br server.BatchRequest
		for _, i := range idx {
			br.Cells = append(br.Cells, hot[i].request(seed))
		}
		body, err := json.Marshal(br)
		if err != nil {
			c.close()
			return nil, err
		}
		c.batches = append(c.batches, body)
	}
	return c, nil
}

func (c *serveClient) close() {
	c.http.CloseIdleConnections()
	c.w.close()
}

func prepareServeHot(seed int64, led *ledger, rec *Recorder) (*env, error) {
	c, err := newServeClient(seed, hotCells(), led, rec)
	if err != nil {
		return nil, err
	}
	// Prime the hot set: the only simulation serve_hot ever causes.
	failedBefore := led.failed
	drive(func(client int) []sample {
		for i := client; i < len(c.hot); i += procs() {
			c.single(i, client)
		}
		return nil
	})
	if led.failed != failedBefore {
		c.close()
		return nil, fmt.Errorf("priming the hot set: %s", led.firstErr)
	}
	return &env{
		run: func(deadline time.Time) []sample {
			return drive(func(client int) []sample {
				st := newStream(seed, client, len(c.hot))
				var out []sample
				for len(out) == 0 || time.Now().Before(deadline) {
					if r := st.next(); r.batch {
						out = append(out, c.batch(r.index, client))
					} else {
						out = append(out, c.single(r.index, client))
					}
				}
				return out
			})
		},
		close: c.close,
	}, nil
}
