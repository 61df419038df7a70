// Command bench is this repository's benchmark: five workloads over the
// capture -> replay -> sweep -> serve -> cluster stack, end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// BENCHMARK.json at the root of the repository declares what it emits;
// README.md in this directory says why each workload and metric exists.
//
//	go run ./bench run [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-runs N] [-out file.json]
//	go run ./bench compare A.json B.json
//	go run ./bench golden [-write]
//
// Run from the root of the repository.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "golden":
		err = cmdGolden(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: go run ./bench run|compare|golden [flags]   (see bench/README.md)")
	os.Exit(2)
}

// defaultSeed is the seed golden.json was written at.
const defaultSeed = 1

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "run this workload in this process and print its result object as the last line; empty runs all five, each in a child process")
	seed := fs.Int64("seed", defaultSeed, "seed of the kernel inputs, the cell order and the request stream")
	seconds := fs.Float64("seconds", 15, "length of the timed phase of one run")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a span file (with all workloads: each untraced run, then its traced repeat)")
	runs := fs.Int("runs", 1, "with all workloads: runs per workload, at seeds seed, seed+1, ...")
	out := fs.String("out", "", "with all workloads: write every run, with the host's description, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 || *runs < 1 {
		return errors.New("-seconds and -runs must be positive")
	}
	if _, err := os.Stat(filepath.Join("bench", "golden.json")); err != nil {
		return fmt.Errorf("run from the root of the repository: %w", err)
	}
	runtime.GOMAXPROCS(procs())

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		res, err := runOne(w, *seed, *seconds, *trace == 1)
		if err != nil {
			return err
		}
		printResult(w.Name, *trace == 1, res)
		fmt.Println(res.line())
		if !res.Correct {
			os.Exit(1)
		}
		return nil
	}
	return runAll(*seed, *seconds, *trace, *runs, *out)
}

// runOne measures one workload in this process.
func runOne(w workload, seed int64, seconds float64, traced bool) (result, error) {
	led := newLedger()
	var measured map[string]float64
	defs := endToEnd
	if traced {
		defs = perLayer
		lm, err := measureLayers(w, seed, seconds, led)
		if err != nil {
			return result{}, err
		}
		measured = layerMetrics(lm)
	} else {
		m, err := measure(w, seed, seconds, led)
		if err != nil {
			return result{}, err
		}
		measured = endToEndMetrics(m)
		for _, ph := range sortedKeys(m.phases) {
			fmt.Printf("  phase %-14s p50 %10.3f ms  n=%d\n", ph, median(m.phases[ph]), len(m.phases[ph]))
		}
		ms := make([]float64, len(m.samples))
		for i, s := range m.samples {
			ms[i] = s.ms
		}
		tail := tailPercentile(len(ms))
		fmt.Printf("  operations n=%d  p50 %.4f ms  p%g %.4f ms (highest percentile with >= 10 samples beyond it)\n",
			len(ms), median(ms), tail, percentile(sorted(ms), tail))
	}
	led.vouch(seed)
	if seed == defaultSeed {
		if err := led.checkGolden(); err != nil {
			return result{}, err
		}
	}
	metrics, err := pack(defs, measured)
	if err != nil {
		return result{}, err
	}
	if led.firstErr != "" {
		fmt.Fprintln(os.Stderr, "bench: first failure:", led.firstErr)
	}
	return result{Correct: led.failed == 0, Attempted: led.attempted, Failed: led.failed, Metrics: metrics}, nil
}

func printResult(workload string, traced bool, res result) {
	kind := "end-to-end, untraced"
	if traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("%s (%s): attempted %d, failed %d, failed_frac %g\n",
		workload, kind, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, name := range sortedKeys(res.Metrics) {
		d, _ := defByName(name)
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", d.Bound*100)
		}
		fmt.Printf("  %-34s %16.6g %-8s %s is better%s\n", name, res.Metrics[name].Value, d.Unit, d.Better, bound)
	}
}

// host describes the machine and commit a report was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

// runRecord is one child run as stored in a report.
type runRecord struct {
	Seed   int64  `json:"seed"`
	Trace  int    `json:"trace"`
	Result result `json:"result"`
}

// report is what `run -out` writes and `compare` reads.
type report struct {
	Host      host                   `json:"host"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string][]runRecord `json:"workloads"`
}

func describeHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: procs(), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// runAll runs every workload, each run in a child process of its own so
// no workload inherits another's heap, caches or connection pools.
// With trace 1 every untraced run is followed by its traced repeat:
// end-to-end metrics always come from the untraced one.
func runAll(seed int64, seconds float64, trace, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Host: describeHost(), Seconds: seconds, Workloads: map[string][]runRecord{}}
	allCorrect := true
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			for tr := 0; tr <= trace; tr++ {
				cmd := exec.Command(self, "run", "-workload", w.Name,
					"-seed", fmt.Sprint(seed+int64(i)), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(tr))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
				var res result
				if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
					return fmt.Errorf("%s: no result (%v): %v", w.Name, err, jerr)
				}
				allCorrect = allCorrect && res.Correct
				rep.Workloads[w.Name] = append(rep.Workloads[w.Name], runRecord{seed + int64(i), tr, res})
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allCorrect {
		return errors.New("a correctness check failed")
	}
	return nil
}
