package server

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzCellRequest drives arbitrary bytes through the front door of
// POST /v1/cells — strict decode, then canonicalise — without running
// anything.  It must never panic, and a cell it accepts is a fixed
// point: the wire form of the canonical cell canonicalises to itself,
// under the same content key, and respects every guardrail.
func FuzzCellRequest(f *testing.F) {
	for _, body := range []string{
		`{"app":"fasta","variant":"combo","fxus":4,"btac_entries":8,"seeds":[1]}`,
		`{"app":"Fasta","predictor":"tage:tables=4,hist=2..64","trace":"off","scale":2,"seeds":[3,1,2]}`,
		`{"app":"Hmmer","variant":"hand isel","predictor":"gshare:hist=11"}`,
		`{"app":`, `{"app":"Fasta","btac_entires":8}`, `{"variant":"original"}`, `{"app":"Mummer"}`,
		`{"app":"Fasta","variant":"turbo"}`, `{"app":"Fasta","fxus":99}`, `{"app":"Fasta","btac_entries":-1}`,
		`{"app":"Fasta","seeds":[-1]}`, `{"app":"Fasta","seeds":[3,3]}`, `{"app":"Fasta","scale":1000}`,
		`{"app":"Fasta","predictor":"gshare:bits=99"}`, `{"app":"Fasta","trace":"always"}`,
		`{"app":"Fasta"} trailing`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CellRequest
		if err := decodeBody(httptest.NewRequest("POST", "/v1/cells", strings.NewReader(string(body))), &req); err != nil {
			return
		}
		c, err := req.canonicalize()
		if err != nil {
			return
		}
		if c.FXUs < 1 || c.FXUs > maxFXUs || c.BTACEntries < 0 || c.BTACEntries > maxBTAC ||
			c.Scale < 1 || c.Scale > maxScale || len(c.Seeds) < 1 || len(c.Seeds) > maxSeeds {
			t.Fatalf("accepted cell %+v escapes the guardrails", c)
		}
		again, err := CellRequest(c).canonicalize()
		if err != nil {
			t.Fatalf("canonical cell %+v refused: %v", c, err)
		}
		if !reflect.DeepEqual(again, c) || again.Key() != c.Key() {
			t.Fatalf("canonical cell is not a fixed point:\n%+v\n%+v", c, again)
		}
	})
}
