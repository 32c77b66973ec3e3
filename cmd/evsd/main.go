// Command evsd runs one EVS ring process over a real network transport:
// the multi-process deployment of the protocol stack that the simulator
// and in-process harnesses model. Each daemon takes the full peer list
// (including itself), joins the ring over loopback or LAN UDP (or a TCP
// mesh with -net tcp), serves Prometheus/JSON metrics and a status
// endpoint over HTTP, and traces formal-model events to a JSONL file so
// a finished run can be certified against the EVS specifications:
//
//	evsd -id p01 -peers p01=127.0.0.1:7101,p02=127.0.0.1:7102 \
//	     -trace p01.jsonl -http 127.0.0.1:8101 &
//	evsd -id p02 -peers p01=127.0.0.1:7101,p02=127.0.0.1:7102 \
//	     -trace p02.jsonl -http 127.0.0.1:8102 &
//	...
//	evsd -check p01.jsonl,p02.jsonl
//
// The -check invocation merges the per-process traces by timestamp and
// runs the specification checker over the interleaving; it exits
// non-zero if any safety clause is violated.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("evsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id        = fs.String("id", "", "process identifier (required unless -check)")
		peers     = fs.String("peers", "", "comma-separated id=addr peer list, including this process")
		peersFile = fs.String("peers-file", "", "file with one id=addr per line (alternative to -peers)")
		network   = fs.String("net", "udp", "transport: udp or tcp")
		httpAddr  = fs.String("http", "", "metrics/status HTTP address (empty disables)")
		tracePath = fs.String("trace", "", "formal-model event trace output (JSONL; empty disables)")
		runFor    = fs.Duration("run", 0, "exit after this long (0: run until SIGINT/SIGTERM)")
		load      = fs.Int("load", 0, "submit this many messages once the ring is operational")
		loadSvc   = fs.String("service", "agreed", "delivery service for -load traffic: agreed or safe")
		payload   = fs.Int("payload", 64, "payload size in bytes for -load traffic")
		check     = fs.String("check", "", "certification mode: comma-separated trace files to merge and check")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *check != "" {
		return runCheck(strings.Split(*check, ","), stdout, stderr)
	}

	if *id == "" {
		fmt.Fprintln(stderr, "evsd: -id is required")
		return 2
	}
	peerMap, err := parsePeers(*peers, *peersFile)
	if err != nil {
		fmt.Fprintf(stderr, "evsd: %v\n", err)
		return 2
	}
	if _, ok := peerMap[model.ProcessID(*id)]; !ok {
		fmt.Fprintf(stderr, "evsd: peer list does not include self %q\n", *id)
		return 2
	}
	svc := model.Agreed
	switch *loadSvc {
	case "agreed":
	case "safe":
		svc = model.Safe
	default:
		fmt.Fprintf(stderr, "evsd: unknown service %q\n", *loadSvc)
		return 2
	}

	d, err := daemon.New(daemon.Config{
		Self: model.ProcessID(*id),
		Medium: func(h transport.Handler, met *obs.Metrics) (transport.Transport, error) {
			return transport.Dial(*network, model.ProcessID(*id), peerMap, h, met)
		},
		TracePath: *tracePath,
	})
	if err != nil {
		fmt.Fprintf(stderr, "evsd: %v\n", err)
		return 1
	}
	defer d.Close()
	fmt.Fprintf(stdout, "evsd %s: %s transport on %s, %d peers\n",
		*id, *network, d.Addr(), len(peerMap))

	if *httpAddr != "" {
		addr, err := d.Serve(*httpAddr)
		if err != nil {
			fmt.Fprintf(stderr, "evsd: http: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "evsd %s: metrics on http://%s/metrics, status on /status\n", *id, addr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *runFor > 0 {
		timeout = time.After(*runFor)
	}

	if *load > 0 {
		go runLoad(d, *load, *payload, svc, stdout)
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "evsd %s: %s, shutting down\n", *id, sig)
	case <-timeout:
		fmt.Fprintf(stdout, "evsd %s: run time elapsed, shutting down\n", *id)
	}
	if err := d.Close(); err != nil {
		fmt.Fprintf(stderr, "evsd: close: %v\n", err)
		return 1
	}
	return 0
}

// runLoad waits for the ring, then submits count messages of size bytes,
// reporting throughput when the local daemon has delivered its own last
// message (a lower bound on cluster-wide delivery).
func runLoad(d *daemon.Daemon, count, size int, svc model.Service, stdout *os.File) {
	if !d.WaitOperational(nil, time.Minute) {
		fmt.Fprintf(stdout, "evsd %s: load: ring never became operational\n", d.ID())
		return
	}
	buf := make([]byte, size)
	before := d.Deliveries()
	start := time.Now()
	submitted := 0
	for submitted < count {
		if err := d.Submit(buf, svc); err != nil {
			// Backlog full: let the ring drain.
			time.Sleep(time.Millisecond)
			continue
		}
		submitted++
	}
	// Wait until the local process has delivered at least its own
	// messages (other senders' traffic only adds to the count).
	for d.Deliveries() < before+uint64(count) {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "evsd %s: load: %d×%dB %s submitted in %v (%.0f msg/s)\n",
		d.ID(), count, size, svc, elapsed.Round(time.Millisecond),
		float64(count)/elapsed.Seconds())
}

// runCheck merges trace files and checks the EVS specifications.
func runCheck(paths []string, stdout, stderr *os.File) int {
	var clean []string
	for _, p := range paths {
		if p = strings.TrimSpace(p); p != "" {
			clean = append(clean, p)
		}
	}
	if len(clean) == 0 {
		fmt.Fprintln(stderr, "evsd: -check needs at least one trace file")
		return 2
	}
	events, err := daemon.MergeTraces(clean...)
	if err != nil {
		fmt.Fprintf(stderr, "evsd: %v\n", err)
		return 1
	}
	violations := daemon.Certify(events)
	fmt.Fprintf(stdout, "evsd check: %d events from %d traces, %d violations\n",
		len(events), len(clean), len(violations))
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stdout, "  %s: %s\n", v.Spec, v.Msg)
		}
		return 1
	}
	return 0
}

// parsePeers reads the id=addr peer list from the flag and/or file.
func parsePeers(flagVal, filePath string) (map[model.ProcessID]string, error) {
	out := make(map[model.ProcessID]string)
	add := func(entry string) error {
		entry = strings.TrimSpace(entry)
		if entry == "" || strings.HasPrefix(entry, "#") {
			return nil
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("bad peer entry %q (want id=addr)", entry)
		}
		out[model.ProcessID(strings.TrimSpace(id))] = strings.TrimSpace(addr)
		return nil
	}
	for _, entry := range strings.Split(flagVal, ",") {
		if err := add(entry); err != nil {
			return nil, err
		}
	}
	if filePath != "" {
		data, err := os.ReadFile(filePath)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if err := add(line); err != nil {
				return nil, err
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no peers given (use -peers or -peers-file)")
	}
	return out, nil
}
