// Command evsperf is the repository benchmark: it drives the EVS stack
// from one process with one load-generator goroutine, checks every
// delivery against a correctness gate, and prints its figures as one
// JSON object on the last line of standard output.
//
//	go build -o evsperf . && ./evsperf --workload tcp-saturate --seed 1 --seconds 20 --trace 0
//
// Socket workloads run rings of in-process hosts on loopback, each
// assembled from the layers of the daemon cmd/evsd deploys (see host.go);
// sim-groups runs the simulator. With --trace 0 the run is untraced and
// prints the end-to-end figures. With --trace 1 it runs an untraced pass
// and a traced pass of half the time each and prints the per-layer
// figures; the traced pass wraps every call into a layer in a span and
// writes the spans under --spans.
//
// The first line of standard output is a provenance header: commit (or
// a digest of the sources when built outside version control), Go
// version, GOMAXPROCS, CPU count and model, workload and seed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one named benchmark input (BENCHMARK.json says why each
// was chosen).
type workload struct {
	run func(seed uint64, seconds float64, tr *tracer) (*phase, error)
	// throughput reads delivered_msgs_s from an untraced pass.
	throughput func(*phase) float64
}

var workloads = map[string]workload{
	"tcp-saturate": {
		run:        socketRun(socketWorkload{network: "tcp", size: 4, warmup: time.Second}),
		throughput: medianThroughput,
	},
	"udp-failover": {
		run:        socketRun(socketWorkload{network: "udp", size: 5, rate: 2000, kills: 2, settle: 600 * time.Millisecond}),
		throughput: totalThroughput,
	},
	"sim-groups": {
		run: func(seed uint64, seconds float64, tr *tracer) (*phase, error) {
			return runSim(simGroups, seed, seconds, tr != nil)
		},
		throughput: medianThroughput,
	},
}

// simGroups sizes the simulator workload.
var simGroups = simWorkload{
	procs: 16, groups: 200, clients: 2000, batchOps: 256, zipfS: 1.2,
	rate: 192000, slice: 50 * time.Millisecond, setups: 5,
}

func socketRun(w socketWorkload) func(uint64, float64, *tracer) (*phase, error) {
	return func(seed uint64, seconds float64, tr *tracer) (*phase, error) {
		p, err := runSocket(w, seed, seconds, tr)
		if err == nil && tr != nil {
			p.encNs, p.decNs, err = tr.replayFrames(20)
		}
		return p, err
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("evsperf", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload: tcp-saturate, udp-failover or sim-groups")
	seed := fset.Uint64("seed", 1, "workload seed")
	seconds := fset.Float64("seconds", 10, "measured seconds")
	trace := fset.Int("trace", 0, "1: traced run printing per-layer figures")
	spans := fset.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span files")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "evsperf: need --workload (tcp-saturate, udp-failover, sim-groups), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	prov, _ := json.Marshal(provenance(*name, *seed, *trace))
	fmt.Fprintf(stdout, "# provenance %s\n", prov)

	res, err := measure(w, *name, *seed, *seconds, *trace == 1, *spans, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "evsperf: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "evsperf: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload's passes and assembles the result.
func measure(w workload, name string, seed uint64, seconds float64, traced bool, spanDir string, stderr io.Writer) (*result, error) {
	secs := seconds
	if traced {
		secs = seconds / 2
	}
	u, err := w.run(seed, secs, nil)
	if err != nil {
		return nil, err
	}
	phases := []*phase{u}
	res := &result{Metrics: map[string]metricValue{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{endToEndValues(u, w.throughput)[m.name], m.unit}
		}
	} else {
		tr := newTracer()
		t, err := w.run(seed, secs, tr)
		if err != nil {
			return nil, err
		}
		phases = append(phases, t)
		vals := perLayerValues(u, t)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.tsv", name, seed))
		if err := tr.writeSpans(path); err != nil {
			fmt.Fprintf(stderr, "evsperf: write spans: %v\n", err)
		}
	}
	res.Correct = true
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed()
		for _, e := range p.errs {
			res.Correct = false
			fmt.Fprintf(stderr, "evsperf: gate: %s\n", e)
		}
		if p.configs > 0 && name != "udp-failover" {
			fmt.Fprintf(stderr, "evsperf: warning: %d configurations installed inside the window\n", p.configs)
		}
	}
	return res, nil
}

// provenance describes where and how the figures were taken.
func provenance(name string, seed uint64, trace int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      trace,
		"commit":     commit,
		"source":     sourceDigest("."),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
}

// sourceDigest hashes the Go sources and module files under root, so runs
// from a checkout without version control still name the code measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the processor model from the kernel.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
