package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// EnvVar is the environment variable the CLI reads a fault spec from.
const EnvVar = "BIOPERF5_FAULTS"

// Parse decodes a compact fault specification into a Plan.  The spec
// is a comma-separated list of key=value pairs:
//
//	seed=N        deterministic stream selector (default 1)
//	panic=R       per-attempt panic probability, R in [0,1]
//	error=R       transient-error probability
//	hang=R        artificial-hang probability
//	cancel=R      spurious-cancellation probability
//	corrupt=R     corrupted-cache-write probability
//	tracecorrupt=R corrupted trace-store-write probability
//	delay=DUR     hang duration (default 30s; set the engine's cell
//	              timeout below it to exercise the watchdog)
//	times=N       max injections per (site, cell) (default 1; keep it
//	              at or below the retry budget so sweeps converge)
//
// Transport (wire) keys, consumed by ChaosTransport:
//
//	refuse=R      connection-refused probability per dial
//	latency=R     added-latency probability per dial
//	latdelay=DUR  added latency per Latency decision (default 25ms)
//	http5xx=R     synthesized-503 probability per response
//	cut=R         mid-stream-cut probability per response body
//	corruptline=R corrupted-leading-bytes probability per response body
//	dupitem=R     duplicated-first-JSONL-line probability per body
//	blackout=HOST@N+M  refuse every request whose host contains HOST
//	              and whose per-host request ordinal is in [N, N+M)
//
// Example: "seed=42,panic=0.2,error=0.2,corrupt=0.3,times=1".
// Example: "seed=7,refuse=0.2,cut=0.2,blackout=18091@2+4,times=8".
// An empty spec returns (nil, nil): no injection.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1, Times: 1, HangDelay: DefaultHangDelay, LatencyDelay: DefaultLatencyDelay}
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec element %q: want key=value", pair)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %w", val, err)
			}
			p.Seed = n
		case "delay", "latdelay":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("fault: bad %s %q: want a positive duration like 250ms", key, val)
			}
			if key == "delay" {
				p.HangDelay = d
			} else {
				p.LatencyDelay = d
			}
		case "blackout":
			target, window, ok := strings.Cut(val, "@")
			if !ok || target == "" {
				return nil, fmt.Errorf("fault: bad blackout %q: want HOST@FROM+FOR", val)
			}
			from, dur, _ := strings.Cut(window, "+")
			f, err1 := strconv.Atoi(from)
			n, err2 := strconv.Atoi(dur)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("fault: bad blackout window %q: want FROM+FOR", window)
			}
			p.BlackoutTarget, p.BlackoutFrom, p.BlackoutFor = target, f, n
		case "times":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("fault: bad times %q: want an integer >= 1", val)
			}
			p.Times = n
		default:
			row := -1
			for i, k := range kinds {
				if k.key == key {
					row = i
				}
			}
			if row < 0 {
				keys := "seed"
				for _, k := range kinds {
					keys += ", " + k.key
				}
				return nil, fmt.Errorf("fault: unknown spec key %q (valid: %s, blackout, delay, latdelay, times)", key, keys)
			}
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad %s rate %q: %w", key, val, err)
			}
			p.rates[row] = r
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// PlanFromEnv parses the BIOPERF5_FAULTS environment variable and
// returns the concrete Plan, letting callers split it between the
// in-process injector and the chaos transport.  An unset or empty
// variable returns (nil, nil).
func PlanFromEnv() (*Plan, error) {
	p, err := Parse(os.Getenv(EnvVar))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", EnvVar, err)
	}
	return p, nil
}
