package fault

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newChaosClient(t *testing.T, plan *Plan, handler http.Handler) (*http.Client, *ChaosTransport, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	ct := &ChaosTransport{Plan: plan}
	return &http.Client{Transport: ct}, ct, srv
}

func linesHandler(n int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, `{"schema":"bioperf5/v1","index":%d}`+"\n", i)
		}
	})
}

func TestChaosTransportPassThrough(t *testing.T) {
	cli, ct, srv := newChaosClient(t, MustParse(t, "seed=1"), linesHandler(2))
	resp, err := cli.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), `"index":1`) {
		t.Errorf("clean plan altered the response: %d %q", resp.StatusCode, b)
	}
	if ct.Injected() != 0 {
		t.Errorf("clean plan injected %d faults", ct.Injected())
	}
}

func TestChaosTransportDeterministic(t *testing.T) {
	plan := MustParse(t, "seed=9,refuse=0.3,http5xx=0.3,cut=0.3,times=32")
	// One server for both runs: the request key includes host:port, so
	// determinism is per endpoint, exactly as in a real cluster where
	// worker addresses are fixed.
	srv := httptest.NewServer(linesHandler(3))
	defer srv.Close()
	outcome := func() []string {
		cli := &http.Client{Transport: &ChaosTransport{Plan: plan}}
		var got []string
		for i := 0; i < 16; i++ {
			resp, err := cli.Get(srv.URL + "/k")
			switch {
			case err != nil:
				got = append(got, "refuse")
			case resp.StatusCode != 200:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				got = append(got, "5xx")
			default:
				_, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					got = append(got, "cut")
				} else {
					got = append(got, "ok")
				}
			}
		}
		return got
	}
	a, b := outcome(), outcome()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: run 1 saw %q, run 2 saw %q", i, a[i], b[i])
		}
	}
	faulty := 0
	for _, o := range a {
		if o != "ok" {
			faulty++
		}
	}
	if faulty == 0 {
		t.Error("high-rate plan injected nothing in 16 requests")
	}
}

func TestChaosTransportRefuse(t *testing.T) {
	cli, ct, srv := newChaosClient(t, MustParse(t, "seed=1,refuse=1,times=1"), linesHandler(1))
	if _, err := cli.Get(srv.URL + "/r"); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("rate-1 refusal returned err=%v", err)
	}
	if ct.Injected() != 1 {
		t.Errorf("injected = %d, want 1", ct.Injected())
	}
	// Ordinal 1 is past the Times budget: clean.
	if _, err := cli.Get(srv.URL + "/r"); err != nil {
		t.Fatalf("request past Times budget failed: %v", err)
	}
}

func TestChaosTransportLatency(t *testing.T) {
	plan := MustParse(t, "seed=1,latency=1,latdelay=80ms,times=1")
	cli, _, srv := newChaosClient(t, plan, linesHandler(1))
	start := time.Now()
	resp, err := cli.Get(srv.URL + "/l")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Errorf("latency injection took %v, want >= 80ms", d)
	}
}

func TestChaosTransportLatencyHonorsContext(t *testing.T) {
	plan := MustParse(t, "seed=1,latency=1,latdelay=10s,times=1")
	cli, _, srv := newChaosClient(t, plan, linesHandler(1))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/lc", nil)
	start := time.Now()
	if _, err := cli.Do(req); err == nil {
		t.Fatal("cancelled latency sleep returned no error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled sleep still took %v", d)
	}
}

func TestChaosTransportHTTP5xx(t *testing.T) {
	cli, _, srv := newChaosClient(t, MustParse(t, "seed=1,http5xx=1,times=1"), linesHandler(1))
	resp, err := cli.Get(srv.URL + "/e")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(b), "injected") {
		t.Errorf("synthesized body = %q", b)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("synthesized 503 carries Retry-After; want none so exponential fallback is exercised")
	}
}

func TestChaosTransportCut(t *testing.T) {
	cli, _, srv := newChaosClient(t, MustParse(t, "seed=1,cut=1,times=1"), linesHandler(50))
	resp, err := cli.Get(srv.URL + "/c")
	if err != nil {
		t.Fatal(err)
	}
	b, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatalf("cut stream read cleanly (%d bytes)", len(b))
	}
	if len(b) > cutAfter {
		t.Errorf("cut forwarded %d bytes, want <= %d", len(b), cutAfter)
	}
}

func TestChaosTransportCorruptLine(t *testing.T) {
	cli, _, srv := newChaosClient(t, MustParse(t, "seed=1,corruptline=1,times=1"), linesHandler(2))
	resp, err := cli.Get(srv.URL + "/cl")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first line")
	}
	line := sc.Bytes()
	resp.Body.Close()
	var v map[string]any
	if err := json.Unmarshal(line, &v); err == nil {
		t.Errorf("corrupted first line still parses as JSON: %q", line)
	}
}

func TestChaosTransportDupItem(t *testing.T) {
	cli, _, srv := newChaosClient(t, MustParse(t, "seed=1,dupitem=1,times=1"), linesHandler(3))
	resp, err := cli.Get(srv.URL + "/d")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4 (3 + 1 duplicate)", len(lines))
	}
	if lines[3] != lines[0] {
		t.Errorf("replayed line %q != first line %q", lines[3], lines[0])
	}
}

func TestChaosTransportBlackoutWindow(t *testing.T) {
	_, _, srv := newChaosClient(t, nil, linesHandler(1))
	host := strings.TrimPrefix(srv.URL, "http://")
	plan := MustParse(t, "seed=1,blackout="+host+"@1+2,times=1")
	cli := &http.Client{Transport: &ChaosTransport{Plan: plan}}
	want := []bool{true, false, false, true, true} // ordinals 1 and 2 blacked out
	for i, ok := range want {
		resp, err := cli.Get(srv.URL + "/b")
		if ok {
			if err != nil {
				t.Fatalf("request %d: unexpected refusal: %v", i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		} else if err == nil || !strings.Contains(err.Error(), "blackout") {
			t.Fatalf("request %d: expected blackout, got err=%v", i, err)
		}
	}
}

func TestChaosTransportMaxConsecutiveForcesCleanPass(t *testing.T) {
	// Rate-1 refusals with a huge Times budget would refuse forever
	// without the streak guard.
	plan := MustParse(t, "seed=1,refuse=1,times=1000")
	cli, _, srv := newChaosClient(t, plan, linesHandler(1))
	clean := 0
	for i := 0; i < 12; i++ {
		resp, err := cli.Get(srv.URL + "/s")
		if err == nil {
			clean++
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if clean != 3 { // every 4th request (streak cap 3) passes clean
		t.Errorf("%d clean passes in 12 rate-1 requests, want 3", clean)
	}
}
