package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bioperf5/internal/cpu"
	"bioperf5/internal/kernels"
	"bioperf5/internal/trace"
)

func simRequest(store *trace.Store, policy TracePolicy) Request {
	cfg := cpu.POWER5Baseline()
	cfg.UseBTAC = true
	return Request{
		App:     "Fasta",
		Variant: kernels.Branchy,
		Seeds:   []int64{1, 2},
		Scale:   1,
		CPU:     cfg,
		Trace:   policy,
		Traces:  store,
	}
}

// TestSimulatePoliciesBitIdentical is the API contract: every trace
// policy produces byte-identical per-seed reports; only the cost model
// differs.
func TestSimulatePoliciesBitIdentical(t *testing.T) {
	store := trace.NewStore(trace.StoreOptions{})
	off, err := Simulate(simRequest(nil, TraceOff))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Simulate(simRequest(store, TraceAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto.Seeds, off.Seeds) || auto.Aggregate != off.Aggregate {
		t.Error("policy auto diverges from the coupled path")
	}
	if off.TraceHits != 0 || off.Captures != 0 {
		t.Errorf("off policy counted trace activity: %+v", off)
	}
	if auto.Captures != 2 || auto.TraceHits != 0 {
		t.Errorf("first auto run = %d captures / %d hits, want 2/0", auto.Captures, auto.TraceHits)
	}
	// A warm store serves auto entirely from memory.
	warm, err := Simulate(simRequest(store, TraceAuto))
	if err != nil {
		t.Fatal(err)
	}
	if warm.TraceHits != 2 || warm.Captures != 0 {
		t.Errorf("warm auto run = %d captures / %d hits, want 2 hits", warm.Captures, warm.TraceHits)
	}
	if !reflect.DeepEqual(warm.Seeds, off.Seeds) {
		t.Error("warm-cache replay diverges from the coupled path")
	}
}

// TestSimulateSharesTraceAcrossTimingConfigs: the FXU x BTAC factorial
// over one (kernel, variant, seed, scale) runs one capture total.
func TestSimulateSharesTraceAcrossTimingConfigs(t *testing.T) {
	store := trace.NewStore(trace.StoreOptions{})
	base := cpu.POWER5Baseline()
	first := true
	for _, fxus := range []int{2, 3, 4} {
		for _, btac := range []bool{false, true} {
			cfg := base
			cfg.NumFXU = fxus
			cfg.UseBTAC = btac
			resp, err := Simulate(Request{
				App: "Hmmer", Variant: kernels.Branchy, Seeds: []int64{1},
				Scale: 1, CPU: cfg, Traces: store,
			})
			if err != nil {
				t.Fatal(err)
			}
			if first {
				if resp.Captures != 1 {
					t.Fatalf("first cell = %d captures, want 1", resp.Captures)
				}
				first = false
			} else if resp.TraceHits != 1 {
				t.Errorf("FXU=%d BTAC=%v recaptured instead of replaying", fxus, btac)
			}
		}
	}
	if st := store.Stats(); st.Captures != 1 {
		t.Errorf("factorial ran %d captures, want 1", st.Captures)
	}
}

func TestSimulateNoSeeds(t *testing.T) {
	if _, err := Simulate(Request{App: "Fasta"}); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestSimulateUnknownApp(t *testing.T) {
	if _, err := Simulate(Request{App: "NoSuchApp", Seeds: []int64{1}}); err == nil {
		t.Fatal("unknown application accepted")
	}
}

// TestSimulateCorruptDiskTraceFallsBack is the end-to-end corruption
// drill: a bit-flipped trace file must be detected, discarded, and
// transparently recaptured — same numbers, one corrupt count.
func TestSimulateCorruptDiskTraceFallsBack(t *testing.T) {
	dir := t.TempDir()
	s1 := trace.NewStore(trace.StoreOptions{Dir: dir})
	req := simRequest(s1, TraceAuto)
	req.Seeds = []int64{1}
	want, err := Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("trace files on disk = %v, %v", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x10
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store (fresh process) sees only the damaged file.
	s2 := trace.NewStore(trace.StoreOptions{Dir: dir})
	req.Traces = s2
	got, err := Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Captures != 1 || got.TraceHits != 0 {
		t.Errorf("corrupt trace not recaptured: %d captures / %d hits", got.Captures, got.TraceHits)
	}
	if !reflect.DeepEqual(got.Seeds, want.Seeds) {
		t.Error("recapture after corruption changed the numbers")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("store stats = %+v, want Corrupt=1", st)
	}
	// And the recapture healed the file for the next process.
	s3 := trace.NewStore(trace.StoreOptions{Dir: dir})
	req.Traces = s3
	if resp, err := Simulate(req); err != nil || resp.TraceHits != 1 {
		t.Errorf("healed file not served: %+v, %v", resp, err)
	}
}

func TestParseTracePolicy(t *testing.T) {
	for in, want := range map[string]TracePolicy{
		"": TraceAuto, "auto": TraceAuto, "off": TraceOff,
	} {
		got, err := ParseTracePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseTracePolicy(%q) = (%q, %v), want %q", in, got, err, want)
		}
	}
	// capture and replay were policies once; they are errors now.
	for _, bad := range []string{"always", "capture", "replay", "Auto"} {
		if _, err := ParseTracePolicy(bad); err == nil {
			t.Errorf("bad policy %q accepted", bad)
		}
	}
}

// TestSimulateCostTotalCoversStages: Cost.TotalNS is the measured wall
// time of the seeds, so it is positive and never below the sum of the
// stages timed inside it — on the coupled path, on a capturing replay
// and on a warm one.
func TestSimulateCostTotalCoversStages(t *testing.T) {
	store := trace.NewStore(trace.StoreOptions{})
	for _, c := range []struct {
		name   string
		policy TracePolicy
	}{{"off", TraceOff}, {"auto cold", TraceAuto}, {"auto warm", TraceAuto}} {
		resp, err := Simulate(simRequest(store, c.policy))
		if err != nil {
			t.Fatal(err)
		}
		cost := resp.Cost
		stages := cost.QueueNS + cost.CompileNS + cost.CaptureNS + cost.ReplayNS +
			cost.SimNS + cost.CacheNS
		if cost.TotalNS <= 0 || cost.TotalNS < stages {
			t.Errorf("%s: TotalNS = %d, stages sum to %d: %+v", c.name, cost.TotalNS, stages, cost)
		}
	}
}

// siteCounts is a BranchProfiler keeping per-PC counts.
type siteCounts map[int][4]uint64

func (s siteCounts) OnCondBranch(pc int, taken, mispredicted bool) {
	c := s[pc]
	c[0]++
	if mispredicted {
		c[1]++
	}
	s[pc] = c
}

func (s siteCounts) OnBTAC(pc int, predicted, wrong bool) {
	c := s[pc]
	c[2]++
	if wrong {
		c[3]++
	}
	s[pc] = c
}

// TestSimulateBranchesRideEveryPolicy: Request.Observer.Branches sees the same
// per-site stream whether the core is fed live, from a fresh capture or
// from a stored trace, and its totals are the aggregate counters.
func TestSimulateBranchesRideEveryPolicy(t *testing.T) {
	store := trace.NewStore(trace.StoreOptions{})
	var first siteCounts
	for _, c := range []struct {
		name   string
		policy TracePolicy
	}{{"off", TraceOff}, {"auto cold", TraceAuto}, {"auto warm", TraceAuto}} {
		prof := siteCounts{}
		req := simRequest(store, c.policy)
		req.Observer.Branches = prof
		resp, err := Simulate(req)
		if err != nil {
			t.Fatal(err)
		}
		var cond, miss, wrong uint64
		for _, s := range prof {
			cond, miss, wrong = cond+s[0], miss+s[1], wrong+s[3]
		}
		agg := resp.Aggregate.Counters
		if cond != agg.CondBranches || miss != agg.DirMispredicts || wrong != agg.TgtMispredicts {
			t.Errorf("%s: profiled %d/%d/%d, counters %d/%d/%d", c.name,
				cond, miss, wrong, agg.CondBranches, agg.DirMispredicts, agg.TgtMispredicts)
		}
		if first == nil {
			first = prof
		} else if !reflect.DeepEqual(prof, first) {
			t.Errorf("%s: per-site profile differs from the coupled run's", c.name)
		}
	}
}
