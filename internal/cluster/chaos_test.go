// Cluster chaos suite: the distributed sweep must converge to the
// byte-identical fault-free manifest while every wire fault the chaos
// transport can inject — refused dials, added latency, synthesized
// 5xx answers, mid-stream cuts, corrupted JSONL lines, duplicated
// batch items, and per-worker blackout windows — lands on the
// coordinator→worker path.
package cluster

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"bioperf5/internal/fault"
	"bioperf5/internal/telemetry"
)

// chaosPlan arms every wire fault kind with a per-key budget of two
// injections, so the client's default retry budget (and the no-retry-
// after-stream-start rule, recovered by requeue) always converges.
func chaosPlan(t *testing.T) *fault.Plan {
	return mustPlan(t, "seed=42,refuse=0.2,latency=0.2,latdelay=1ms,http5xx=0.25,"+
		"cut=0.2,corruptline=0.2,dupitem=0.2,times=2")
}

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClusterSweepUnderNetworkChaosIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ref := singleNode(t)
	w1, w2 := newWorker(t), newWorker(t)
	ct := &fault.ChaosTransport{Plan: chaosPlan(t)}
	m, err := Run(Options{
		Workers:         []string{w1.URL, w2.URL},
		Spec:            testSpec(nil),
		batchSize:       2,
		retryBackoff:    time.Millisecond,
		maxRetryAfter:   5 * time.Millisecond,
		breakerCooldown: time.Millisecond,
		HTTP:            &http.Client{Transport: ct},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ct.Injected() == 0 {
		t.Fatal("the chaos transport injected nothing; the run proved nothing")
	}
	if got, want := canonManifest(t, m), canonManifest(t, ref); got != want {
		t.Errorf("chaotic cluster manifest differs from fault-free single-node:\n--- chaos\n%s\n--- clean\n%s", got, want)
	}
	cs := m.Cluster
	if cs.FailedCells != 0 || cs.Completed != cs.Cells {
		t.Errorf("every cell must complete under chaos: %+v", cs)
	}
	// The per-key fault budget (Times: 2) is below the breaker
	// threshold, so workers wobble but none is lost.
	if cs.WorkersLost != 0 || cs.Quarantined != 0 {
		t.Errorf("bounded chaos should not cost a worker: %+v", cs)
	}
}

// TestClusterSweepChaosSameSeedSameManifest reruns the chaotic sweep
// against the same workers with the same plan seed: determinism end to
// end means the manifest — and the convergence — reproduce exactly.
func TestClusterSweepChaosSameSeedSameManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	w1, w2 := newWorker(t), newWorker(t)
	run := func() (*fault.ChaosTransport, string) {
		ct := &fault.ChaosTransport{Plan: chaosPlan(t)}
		m, err := Run(Options{
			Workers:         []string{w1.URL, w2.URL},
			Spec:            testSpec(nil),
			batchSize:       2,
			retryBackoff:    time.Millisecond,
			maxRetryAfter:   5 * time.Millisecond,
			breakerCooldown: time.Millisecond,
			HTTP:            &http.Client{Transport: ct},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ct, canonManifest(t, m)
	}
	ct1, first := run()
	ct2, second := run()
	if first != second {
		t.Error("same seed, same workers: manifests diverge")
	}
	if ct1.Injected() == 0 || ct2.Injected() == 0 {
		t.Errorf("both runs must inject (got %d and %d)", ct1.Injected(), ct2.Injected())
	}
}

// TestClusterBlackoutPartitionTripsBreakerAndRecovers partitions one
// worker for a window of requests: its breaker must open and the
// healthy worker take its cells, but a partition — unlike a flapping worker —
// must not quarantine; once the window passes, the /readyz probe
// recloses the breaker.
func TestClusterBlackoutPartitionTripsBreakerAndRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ref := singleNode(t)
	healthy, flaky := newWorker(t), newWorker(t)
	target := strings.TrimPrefix(flaky.URL, "http://")
	// Request 0 to the flaky host is the version handshake; the window
	// then swallows its first dispatch and the next few recovery probes.
	plan := mustPlan(t, "seed=7,blackout="+target+"@1+4")
	reg := telemetry.NewRegistry()
	m, err := Run(Options{
		Workers:          []string{healthy.URL, flaky.URL},
		Spec:             testSpec(nil),
		batchSize:        2,
		Retries:          -1, // fail the partitioned dispatch fast
		breakerThreshold: 1,
		breakerCooldown:  time.Millisecond,
		quarantineTrips:  10,
		HTTP:             &http.Client{Transport: &fault.ChaosTransport{Plan: plan}},
		Registry:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonManifest(t, m), canonManifest(t, ref); got != want {
		t.Errorf("post-partition manifest differs from single-node:\n--- partition\n%s\n--- clean\n%s", got, want)
	}
	cs := m.Cluster
	if cs.FailedCells != 0 || cs.Completed != cs.Cells {
		t.Errorf("every cell must complete despite the partition: %+v", cs)
	}
	if cs.BreakerTrips == 0 {
		t.Errorf("the partition should have tripped the flaky worker's breaker: %+v", cs)
	}
	if cs.WorkersLost != 0 || cs.Quarantined != 0 {
		t.Errorf("a transient partition must not quarantine: %+v", cs)
	}
	registrySaysWhatTheManifestSays(t, reg, cs)
}
