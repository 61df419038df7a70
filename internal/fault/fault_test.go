package fault

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// MustParse is how this package's tests build plans: through the one
// door production uses.
func MustParse(t testing.TB, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

// rate reads the plan's probability for one spec key.
func rate(t testing.TB, p *Plan, key string) float64 {
	t.Helper()
	for i, row := range kinds {
		if row.key == key {
			return p.rates[i]
		}
	}
	t.Fatalf("no fault kind %q", key)
	return 0
}

func TestPlanDeterministic(t *testing.T) {
	p := MustParse(t, "seed=7,panic=0.3,error=0.3,hang=0.2,cancel=0.2,times=4")
	for attempt := 0; attempt < 4; attempt++ {
		first := p.Decide(SiteExecute, "cell-a", attempt)
		for i := 0; i < 10; i++ {
			if got := p.Decide(SiteExecute, "cell-a", attempt); got != first {
				t.Fatalf("attempt %d: decision changed: %v then %v", attempt, first, got)
			}
		}
	}
	// A different seed must produce a different fault stream somewhere.
	q := MustParse(t, "seed=8,panic=0.3,error=0.3,hang=0.2,cancel=0.2,times=4")
	same := true
	for attempt := 0; attempt < 4 && same; attempt++ {
		for _, cell := range []string{"cell-a", "cell-b", "cell-c", "cell-d"} {
			if p.Decide(SiteExecute, cell, attempt) != q.Decide(SiteExecute, cell, attempt) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical decisions on every probe")
	}
}

// pinSpec arms every row of the kinds table; pinned holds, per site,
// the decision for hashes cell-00..cell-63 x attempts 0..2 as recorded
// from the hand-written Decide this table replaced (one character per
// decision: the Kind's numeric value in base 13).
const pinSpec = "seed=42,panic=0.2,error=0.2,hang=0.1,cancel=0.1,corrupt=0.4,tracecorrupt=0.3," +
	"refuse=0.25,latency=0.25,http5xx=0.35,cut=0.2,corruptline=0.2,dupitem=0.2,delay=1s,latdelay=5ms,times=3"

var pinned = [...]string{
	SiteExecute:  "403240021022100022001010303024040011231201342102424432110013342210241402002202301322013002000211204421001100321130023212210023234001000203143011000030022144431100144023043112203040200004012120",
	SiteStore:    "550000005555555550000050050500550550500050050550000000000000055055500500500505050050050050050505000555505550050500505005500505500000550000500505505500550500005550000000005050500055050050500555",
	SiteTrace:    "000005050500000000005000005005005005000500000000555000050005555550005005000505000000050555005050000050005000550050555505000005000505000050005500005005500005555555550050050000055055550000550000",
	SiteDial:     "700607000600606770666060600707760070076077077770606660006607000776006600600066007700760070000070760006070060600760007000077607000777000007606760706070067077606600000707607000766076770007700066",
	SiteResponse: "000088000080808080000008008080000808008080888000080800080800000000000800000800088080808800800808000008000008000080000000808800888080000000808088888880808800000800880088088800000080000008800880",
	SiteStream:   "0abaab009a0a00a90a00b00b90b090bb990b9a90bb9abbb000bab00ab0a09a00b0a0b0000bb9ba9baa09b9b000a0b0909b0b0b0a909aa00000a09bb0aa00999a90b00a00b0b00b0a0a90aaa0a099a0b090b9a9a09b0bb9b000099ba0b00b0a90",
}

// TestDecidePinnedToParent holds every decision of the table-driven
// Decide equal to the parent's: same kind, and the same delay rule
// (hang and latency carry the plan's, everything else none).
func TestDecidePinnedToParent(t *testing.T) {
	p := MustParse(t, pinSpec)
	for site, want := range pinned {
		for h := 0; h < 64; h++ {
			for attempt := 0; attempt < 3; attempt++ {
				d := p.Decide(Site(site), fmt.Sprintf("cell-%02d", h), attempt)
				if got := "0123456789abc"[d.Kind]; got != want[3*h+attempt] {
					t.Errorf("%s site, cell-%02d attempt %d: kind %v, parent decided %c",
						siteNames[site], h, attempt, d.Kind, want[3*h+attempt])
				}
				wantDelay := map[Kind]time.Duration{Hang: time.Second, Latency: 5 * time.Millisecond}[d.Kind]
				if d.Delay != wantDelay {
					t.Errorf("%s site, cell-%02d attempt %d: %v delay %v, want %v",
						siteNames[site], h, attempt, d.Kind, d.Delay, wantDelay)
				}
			}
		}
	}
}

func TestKindNames(t *testing.T) {
	for k, want := range map[Kind]string{None: "none", Corrupt: "corrupt", Latency: "latency",
		DupItem: "dupitem", Blackout: "blackout", Kind(99): "Kind(99)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestPlanRateOneAlwaysInjects(t *testing.T) {
	p := MustParse(t, "error=1")
	if d := p.Decide(SiteExecute, "x", 0); d.Kind != Error {
		t.Errorf("rate-1 error plan decided %v", d.Kind)
	}
	s := MustParse(t, "corrupt=1")
	if d := s.Decide(SiteStore, "x", 0); d.Kind != Corrupt {
		t.Errorf("rate-1 corrupt plan decided %v", d.Kind)
	}
	// Execute-site rates never leak into the store site and vice versa.
	if d := p.Decide(SiteStore, "x", 0); d.Kind != None {
		t.Errorf("error plan injected %v at the store site", d.Kind)
	}
	if d := s.Decide(SiteExecute, "x", 0); d.Kind != None {
		t.Errorf("corrupt plan injected %v at the execute site", d.Kind)
	}
}

func TestPlanTimesBudget(t *testing.T) {
	p := MustParse(t, "error=1") // times defaults to 1
	if d := p.Decide(SiteExecute, "x", 0); d.Kind != Error {
		t.Error("attempt 0 not injected")
	}
	if d := p.Decide(SiteExecute, "x", 1); d.Kind != None {
		t.Errorf("attempt 1 injected %v past the Times budget", d.Kind)
	}
	p = MustParse(t, "error=1,times=3")
	if d := p.Decide(SiteExecute, "x", 2); d.Kind != Error {
		t.Error("attempt 2 not injected with times=3")
	}
	if d := p.Decide(SiteExecute, "x", 3); d.Kind != None {
		t.Error("attempt 3 injected with times=3")
	}
}

func TestPlanZeroValueInjectsNothing(t *testing.T) {
	var p Plan
	for attempt := 0; attempt < 3; attempt++ {
		if d := p.Decide(SiteExecute, "x", attempt); d.Kind != None {
			t.Errorf("zero plan injected %v", d.Kind)
		}
		if d := p.Decide(SiteStore, "x", attempt); d.Kind != None {
			t.Errorf("zero plan injected %v at store", d.Kind)
		}
	}
}

func TestPlanHangCarriesDelay(t *testing.T) {
	d := MustParse(t, "hang=1,delay=123ms").Decide(SiteExecute, "x", 0)
	if d.Kind != Hang || d.Delay != 123*time.Millisecond {
		t.Errorf("hang decision = %+v", d)
	}
	if d := MustParse(t, "hang=1").Decide(SiteExecute, "x", 0); d.Delay != DefaultHangDelay {
		t.Errorf("default hang delay = %v", d.Delay)
	}
}

func TestParse(t *testing.T) {
	p := MustParse(t, "seed=42, panic=0.1,error=0.2,hang=0.05,cancel=0.05,corrupt=0.3,delay=250ms,times=2")
	if p.Seed != 42 || rate(t, p, "panic") != 0.1 || rate(t, p, "error") != 0.2 ||
		rate(t, p, "hang") != 0.05 || rate(t, p, "cancel") != 0.05 || rate(t, p, "corrupt") != 0.3 ||
		p.HangDelay != 250*time.Millisecond || p.Times != 2 {
		t.Errorf("parsed plan = %+v", p)
	}
	if p, err := Parse("  "); p != nil || err != nil {
		t.Errorf("empty spec = %+v, %v; want nil, nil", p, err)
	}
	bad := []string{
		"panic",               // no value
		"panic=x",             // bad rate
		"panic=1.5",           // out of range
		"panic=NaN",           // not a probability
		"warp=0.1",            // unknown key
		"delay=-3s",           // negative duration
		"delay=fast",          // unparsable duration
		"times=0",             // below 1
		"seed=abc",            // bad seed
		"panic=0.6,error=0.6", // execute rates sum > 1
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParseErrorsNameTheOffender(t *testing.T) {
	_, err := Parse("panic=nope")
	if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q does not name the offending key/value", err)
	}
	_, err = Parse("warp=1")
	const valid = "(valid: seed, panic, error, hang, cancel, corrupt, tracecorrupt, refuse, latency, " +
		"http5xx, cut, corruptline, dupitem, blackout, delay, latdelay, times)"
	if err == nil || !strings.Contains(err.Error(), valid) {
		t.Errorf("unknown-key error %q does not list the valid keys as %s", err, valid)
	}
}

func TestParseNetworkKeys(t *testing.T) {
	p := MustParse(t, "seed=7,refuse=0.1,latency=0.2,latdelay=5ms,http5xx=0.3,cut=0.1,corruptline=0.1,dupitem=0.1,tracecorrupt=0.4,blackout=host9@2+4,times=8")
	if rate(t, p, "refuse") != 0.1 || rate(t, p, "latency") != 0.2 || p.LatencyDelay != 5*time.Millisecond ||
		rate(t, p, "http5xx") != 0.3 || rate(t, p, "cut") != 0.1 || rate(t, p, "corruptline") != 0.1 ||
		rate(t, p, "dupitem") != 0.1 || rate(t, p, "tracecorrupt") != 0.4 ||
		p.BlackoutTarget != "host9" || p.BlackoutFrom != 2 || p.BlackoutFor != 4 {
		t.Errorf("parsed plan = %+v", p)
	}
	if !p.HasNetworkFaults() || !p.HasLocalFaults() {
		t.Errorf("HasNetworkFaults=%v HasLocalFaults=%v, want true, true",
			p.HasNetworkFaults(), p.HasLocalFaults())
	}
	bad := []string{
		"blackout=h",             // no window
		"blackout=h@2",           // no duration
		"blackout=h@-1+2",        // negative start
		"blackout=h@0+0",         // zero duration
		"blackout=@1+2",          // empty host
		"latdelay=-5ms",          // negative duration
		"refuse=1.5",             // out of range
		"cut=0.5,dupitem=0.6",    // stream rates sum > 1
		"refuse=0.7,latency=0.7", // dial rates sum > 1
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	local := MustParse(t, "seed=1,panic=0.5")
	if local.HasNetworkFaults() || !local.HasLocalFaults() {
		t.Errorf("local-only plan: HasNetworkFaults=%v HasLocalFaults=%v",
			local.HasNetworkFaults(), local.HasLocalFaults())
	}
	if window := MustParse(t, "blackout=h@0+1"); !window.HasNetworkFaults() || window.HasLocalFaults() {
		t.Error("a blackout window alone must count as a network fault and nothing else")
	}
}

func TestPlanTraceSiteIndependent(t *testing.T) {
	p := MustParse(t, "tracecorrupt=1")
	if d := p.Decide(SiteTrace, "x", 0); d.Kind != Corrupt {
		t.Errorf("rate-1 tracecorrupt decided %v", d.Kind)
	}
	if d := p.Decide(SiteStore, "x", 0); d.Kind != None {
		t.Errorf("tracecorrupt leaked into store site: %v", d.Kind)
	}
	s := MustParse(t, "corrupt=1")
	if d := s.Decide(SiteTrace, "x", 0); d.Kind != None {
		t.Errorf("corrupt leaked into trace site: %v", d.Kind)
	}
}

// FuzzParse holds the spec parser to its contract on arbitrary bytes:
// it never panics, whatever it accepts is a valid plan, and it is a
// function of its input.  Seeds: scripts/cluster_chaos.sh's spec and
// Parse's doc-comment examples.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"seed=42,refuse=0.15,latency=0.15,latdelay=2ms,http5xx=0.2,cut=0.15,corruptline=0.15,dupitem=0.15,times=2,blackout=18092@2+3",
		"seed=42,panic=0.2,error=0.2,corrupt=0.3,times=1",
		"seed=7,refuse=0.2,cut=0.2,blackout=18091@2+4,times=8",
		pinSpec,
		"", " , ", "panic", "panic=NaN", "blackout=h@-1+2", "delay=-3s",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned a plan beside error %v", spec, err)
			}
			return
		}
		again, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, then failed: %v", spec, err)
		}
		if p == nil || again == nil {
			if p != again || strings.TrimSpace(spec) != "" {
				t.Fatalf("Parse(%q) = %v then %v: only a blank spec means no plan", spec, p, again)
			}
			return
		}
		if *p != *again {
			t.Fatalf("Parse(%q) is not deterministic: %+v then %+v", spec, *p, *again)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a plan Validate rejects: %v", spec, err)
		}
		for _, r := range p.rates {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("Parse(%q) accepted rate %g", spec, r)
			}
		}
	})
}
