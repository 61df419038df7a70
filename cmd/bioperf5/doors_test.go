package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"bioperf5/internal/harness"
	"bioperf5/internal/kernels"
	"bioperf5/internal/sched"
	"bioperf5/internal/server"
)

// spelling is one way of writing a cell down.  Seeds are text, the way
// a flag or a query string carries them; the doors that take numbers
// (JSON, a SweepSpec) get them through seedInts.
type spelling struct {
	app, variant string
	fxus, btac   int
	predictor    string
	seeds        string
}

// seedInts reads a seed text leniently, so a malformed list (negative,
// duplicate) reaches the numeric doors as written.
func seedInts(text string) []int64 {
	var out []int64
	for _, part := range strings.Split(text, ",") {
		if n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64); err == nil {
			out = append(out, n)
		}
	}
	return out
}

// TestSameCellFromEveryDoor pins, in one place, the property every
// byte-identity gate rests on: however a cell is spelled and whichever
// front door it comes through — `branches` flags, `sweep` flags, a
// programmatic SweepSpec, a /v1/cells body, the coordinator's wire form
// of a planned cell, a ?seeds= query — it resolves to one content key,
// and a malformed spelling is refused at every door that can express it
// with a message quoting the bad value.
func TestSameCellFromEveryDoor(t *testing.T) {
	eng := sched.New(sched.Options{Workers: 2})
	defer eng.Close()
	srv := server.New(server.Options{Engine: eng})
	post := func(req server.CellRequest) (string, error) {
		body, _ := json.Marshal(req)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/cells", strings.NewReader(string(body))))
		if w.Code != http.StatusOK {
			return "", fmt.Errorf("%d: %s", w.Code, w.Body)
		}
		var resp server.CellResponse
		err := json.Unmarshal(w.Body.Bytes(), &resp)
		return resp.Key, err
	}
	plan := func(sp spelling) (harness.PlanCell, error) {
		v, err := kernels.VariantByName(sp.variant)
		if err != nil {
			return harness.PlanCell{}, err
		}
		p, err := harness.PlanSweep(harness.SweepSpec{
			Apps: []string{sp.app}, Variants: []kernels.Variant{v}, FXUs: []int{sp.fxus},
			BTACEntries: []int{sp.btac}, Predictors: []string{sp.predictor},
			Config: harness.Config{Seeds: seedInts(sp.seeds)},
		})
		if err != nil {
			return harness.PlanCell{}, err
		}
		return p.Points[0], nil
	}
	type door struct {
		name string
		key  func(spelling) (string, error)
		// seedsOnly marks a door that spells nothing but scale and seeds.
		seedsOnly bool
	}
	doors := []door{
		{name: "branches flags", key: func(sp spelling) (string, error) {
			c, _, err := branchesCell([]string{sp.app, "-variant", sp.variant, "-fxus", strconv.Itoa(sp.fxus),
				"-btac", strconv.Itoa(sp.btac), "-predictor", sp.predictor, "-seeds", sp.seeds})
			if err != nil {
				return "", err
			}
			return c.Key(), nil
		}},
		{name: "sweep flags", key: func(sp spelling) (string, error) {
			f, err := parseSweepFlags([]string{"-apps", sp.app, "-variants", sp.variant,
				"-fxus", strconv.Itoa(sp.fxus), "-btac", strconv.Itoa(sp.btac), "-predictors", sp.predictor, "-seeds", sp.seeds})
			if err != nil {
				return "", err
			}
			p, err := harness.PlanSweep(f.spec)
			if err != nil {
				return "", err
			}
			return p.Points[0].Key, nil
		}},
		{name: "PlanSweep", key: func(sp spelling) (string, error) {
			pc, err := plan(sp)
			return pc.Key, err
		}},
		{name: "/v1/cells body", key: func(sp spelling) (string, error) {
			return post(server.CellRequest{App: sp.app, Variant: sp.variant, FXUs: sp.fxus, BTACEntries: sp.btac,
				Predictor: sp.predictor, Seeds: seedInts(sp.seeds)})
		}},
		{name: "coordinator wire form", key: func(sp spelling) (string, error) {
			// What cluster.Run sends a worker for a planned cell; a spelling
			// the plan refuses never reaches the wire, so send it as written.
			pc, err := plan(sp)
			if err != nil {
				pc.Cell = harness.Cell{App: sp.app, Variant: sp.variant, FXUs: sp.fxus, BTACEntries: sp.btac,
					Predictor: sp.predictor, Seeds: seedInts(sp.seeds)}
			}
			return post(server.CellRequest(pc.Cell))
		}},
		{name: "?seeds= query", seedsOnly: true, key: func(sp spelling) (string, error) {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest("GET",
				"/v1/experiments/table1?seeds="+url.QueryEscape(sp.seeds), nil))
			if w.Code != http.StatusOK {
				return "", fmt.Errorf("%d: %s", w.Code, w.Body)
			}
			var rep harness.Report
			if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
				return "", err
			}
			c, err := harness.Cell{App: "Fasta", Variant: "combination", Predictor: "gshare",
				Scale: rep.Config.Scale, Seeds: rep.Config.Seeds}.Canonical()
			return c.Key(), err
		}},
	}

	same := []spelling{
		{"Fasta", "combination", 2, 0, "gshare:bits=12,hist=11", "1,2"},
		{"fasta", "combo", 0, 0, "gshare", " 1, 2"},
		{"FASTA", "Combination", 2, 0, "gshare:hist=11", "1 ,2"},
	}
	want, err := harness.Cell{App: "Fasta", Variant: "combination", FXUs: 2,
		Predictor: "gshare:bits=12,hist=11", Scale: 1, Seeds: []int64{1, 2}}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range same {
		for _, d := range doors {
			got, err := d.key(sp)
			if err != nil {
				t.Errorf("%s refuses %+v: %v", d.name, sp, err)
			} else if got != want.Key() {
				t.Errorf("%s: %+v keys %.12s, want %.12s", d.name, sp, got, want.Key())
			}
		}
	}
	// One cell: its two seeds were simulated once, whatever the spelling
	// (the query door also ran Table I's four baselines).
	if st := eng.Stats(); st.Computed != 2+4*2 {
		t.Errorf("engine computed %d jobs, want 10 (every spelling is one cell)", st.Computed)
	}

	good := same[0]
	malformed := []struct {
		name      string
		sp        spelling
		quoted    string // the offending value, as the message must show it
		seedsOnly bool   // expressible at the seeds-only doors
	}{
		{"negative seed", spelling{good.app, good.variant, 2, 0, good.predictor, "1,-2"}, `"-2"`, true},
		{"duplicate seed", spelling{good.app, good.variant, 2, 0, good.predictor, "3,4,3"}, `"3"`, true},
		{"fxus -1", spelling{good.app, good.variant, -1, 0, good.predictor, "1"}, "-1", false},
		{"btac -4", spelling{good.app, good.variant, 2, -4, good.predictor, "1"}, "-4", false},
		{"unknown app", spelling{"Mummer", good.variant, 2, 0, good.predictor, "1"}, `"Mummer"`, false},
		{"bad predictor", spelling{good.app, good.variant, 2, 0, "gshare:bits=banana", "1"}, "banana", false},
	}
	for _, tc := range malformed {
		for _, d := range doors {
			if d.seedsOnly && !tc.seedsOnly {
				continue
			}
			_, err := d.key(tc.sp)
			if err == nil {
				t.Errorf("%s: %s accepted", tc.name, d.name)
			} else if !strings.Contains(err.Error(), tc.quoted) &&
				!strings.Contains(err.Error(), strings.ReplaceAll(tc.quoted, `"`, `\"`)) {
				t.Errorf("%s: %s error %q does not quote %s", tc.name, d.name, err, tc.quoted)
			}
		}
	}
}
