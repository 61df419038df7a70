package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"bioperf5/internal/core"
	"bioperf5/internal/harness"
	"bioperf5/internal/telemetry"
)

// Request-size guardrails.  They bound resource consumption per
// request, not the science: a sweep wanting more goes through the CLI.
const (
	maxBodyBytes = 1 << 20 // request bodies are small JSON documents
	maxBatch     = 256     // cells in one batch request
	maxFXUs      = 8
	maxBTAC      = 4096
	maxScale     = 64
	maxSeeds     = 16
)

// CellRequest is the wire form of one simulation cell.  Everything but
// App is optional; zero values mean the POWER5 baseline (2 FXUs, no
// BTAC, original code, scale 1, seed 1).
type CellRequest struct {
	App         string  `json:"app"`
	Variant     string  `json:"variant,omitempty"`
	FXUs        int     `json:"fxus,omitempty"`
	BTACEntries int     `json:"btac_entries,omitempty"`
	Scale       int     `json:"scale,omitempty"`
	Seeds       []int64 `json:"seeds,omitempty"`
	// Predictor is a direction-predictor spec ("tage:tables=4,hist=2..64");
	// empty means the POWER5-like tournament default.  Malformed specs
	// are rejected with a structured 400 naming the field and reason.
	Predictor string `json:"predictor,omitempty"`
	// Trace selects the execution strategy ("auto" or "off"); empty
	// means the server's default.  It never changes the
	// numbers or the cell's key — only how they are computed.
	Trace core.TracePolicy `json:"trace,omitempty"`
}

// CellResponse is the result of one cell: the canonical coordinates
// the request resolved to, the cell's content key (identical to the
// key a sweep manifest records for the same cell), how many of its
// per-seed submissions coalesced with work already in flight or
// memoized, and the per-seed + aggregate stats in the harness report
// schema.
type CellResponse struct {
	Schema      string  `json:"schema"`
	App         string  `json:"app"`
	Variant     string  `json:"variant"`
	FXUs        int     `json:"fxus"`
	BTACEntries int     `json:"btac_entries"`
	Predictor   string  `json:"predictor"`
	Scale       int     `json:"scale"`
	Seeds       []int64 `json:"seeds"`
	Key         string  `json:"key"`
	Coalesced   int     `json:"coalesced"`
	TraceHit    bool    `json:"trace_hit"`
	// Cost is the cell's per-stage wall-time breakdown (queue wait,
	// compile, capture, replay, cache I/O).  Coalesced seeds contribute
	// nothing — their work is charged to the submission that enqueued it
	// — so a fully memoized cell reports an all-zero (omitted) cost.
	Cost  telemetry.StageCost `json:"cost"`
	Stats harness.KernelStats `json:"stats"`
}

// canonicalize resolves the request to the canonical cell that
// addresses the engine's caches — harness.Cell.Canonical, the rules
// every front door shares, which is what makes coalescing work — and
// applies this server's size guardrails.
func (r CellRequest) canonicalize() (harness.Cell, error) {
	c, err := harness.Cell(r).Canonical()
	switch {
	case err != nil:
	case c.FXUs > maxFXUs:
		err = fmt.Errorf("fxus %d out of range [1, %d]", c.FXUs, maxFXUs)
	case c.BTACEntries > maxBTAC:
		err = fmt.Errorf("btac_entries %d out of range [0, %d]", c.BTACEntries, maxBTAC)
	case c.Scale > maxScale:
		err = fmt.Errorf("scale %d out of range [1, %d]", c.Scale, maxScale)
	case len(c.Seeds) > maxSeeds:
		err = fmt.Errorf("%d seeds exceed the per-cell limit of %d", len(c.Seeds), maxSeeds)
	}
	return c, err
}

// runCell executes one canonical cell through the engine and packages
// the response.
func (s *Server) runCell(ctx context.Context, c harness.Cell) (*CellResponse, error) {
	cfg := harness.Config{Scale: c.Scale, Seeds: c.Seeds, Engine: s.eng, Context: ctx, Trace: c.Trace}
	if cfg.Trace == "" {
		cfg.Trace = s.opts.DefaultTrace
	}
	out, err := harness.CellStats(cfg, c.App, c.Setup())
	s.mCoalesced.Add(uint64(out.Coalesced))
	if err != nil {
		return nil, err
	}
	return &CellResponse{
		Schema:      harness.SchemaVersion,
		App:         c.App,
		Variant:     c.Variant,
		FXUs:        c.FXUs,
		BTACEntries: c.BTACEntries,
		Predictor:   c.Predictor,
		Scale:       c.Scale,
		Seeds:       c.Seeds,
		Key:         out.Key,
		Coalesced:   out.Coalesced,
		TraceHit:    out.TraceHit,
		Cost:        out.Cost,
		Stats:       out.Stats,
	}, nil
}

// handleCell runs one cell synchronously: validate, admit, execute,
// answer.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req CellRequest
	if err := decodeBody(r, &req); err != nil {
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := req.canonicalize()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if !s.admit(ctx, 1) {
		s.saturated(w)
		return
	}
	defer s.release(1)
	resp, err := s.runCell(ctx, c)
	if err != nil {
		s.errorJSON(w, statusForRunError(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// BatchRequest is the wire form of POST /v1/cells:batch.
type BatchRequest struct {
	Cells []CellRequest `json:"cells"`
}

// BatchItem is one JSONL line of a batch response, emitted as its cell
// completes (completion order, not request order — Index ties the line
// back to the request).
type BatchItem struct {
	Schema string        `json:"schema"`
	Index  int           `json:"index"`
	Status string        `json:"status"` // "ok" or "error"
	Error  string        `json:"error,omitempty"`
	Result *CellResponse `json:"result,omitempty"`
}

// handleBatch fans a batch of cells into the engine and streams
// per-cell results back as JSON Lines as they complete.  The whole
// batch is validated and admitted (all cells or none) before any work
// starts, so a batch can never half-fail on a malformed trailing cell
// or wedge the server beyond its admission bound.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Cells) == 0 {
		s.errorJSON(w, http.StatusBadRequest, "empty batch: cells must name at least one cell")
		return
	}
	// Admission is all-or-nothing, so a batch larger than the admission
	// bound could never run: a 429 would tell the client to retry forever.
	if limit := min(maxBatch, cap(s.sem)); len(req.Cells) > limit {
		s.errorJSON(w, http.StatusBadRequest,
			"batch of %d cells exceeds the limit of %d (at most %d cells per batch, %d cells in flight); split it",
			len(req.Cells), limit, maxBatch, cap(s.sem))
		return
	}
	cells := make([]harness.Cell, len(req.Cells))
	for i, c := range req.Cells {
		var err error
		if cells[i], err = c.canonicalize(); err != nil {
			s.badRequest(w, fmt.Errorf("cell %d: %w", i, err))
			return
		}
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if !s.admit(ctx, len(cells)) {
		s.saturated(w)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	items := make(chan BatchItem)
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.release(1)
			item := BatchItem{Schema: harness.SchemaVersion, Index: i, Status: "ok"}
			resp, err := s.runCell(ctx, cells[i])
			if err != nil {
				item.Status = "error"
				item.Error = err.Error()
			} else {
				item.Result = resp
			}
			items <- item
		}()
	}
	go func() {
		wg.Wait()
		close(items)
	}()
	enc := json.NewEncoder(w)
	for item := range items {
		enc.Encode(item)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// decodeBody parses a JSON request body strictly: unknown fields are
// rejected (they are always a client bug — a typoed "btac_entires"
// must not silently run the wrong cell), as is trailing garbage.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("bad request body: trailing data after the JSON document")
	}
	return nil
}

// configFromQuery builds the experiment configuration from ?scale= and
// ?seeds=, with the CLI's defaults (scale 1, seeds 1,2,3) so the
// served bytes match an argument-less `bioperf5 run <id> -json`.
func configFromQuery(r *http.Request) (harness.Config, error) {
	cfg := harness.DefaultConfig()
	q := r.URL.Query()
	if v := q.Get("scale"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxScale {
			return cfg, fmt.Errorf("bad scale %q: want an integer in [1, %d]", v, maxScale)
		}
		cfg.Scale = n
	}
	if v := q.Get("seeds"); v != "" {
		var err error
		if cfg.Seeds, err = harness.ParseSeeds(v); err != nil {
			return cfg, err
		}
		if len(cfg.Seeds) > maxSeeds {
			return cfg, fmt.Errorf("%d seeds exceed the limit of %d", len(cfg.Seeds), maxSeeds)
		}
	}
	return cfg, nil
}
