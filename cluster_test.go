package evs

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// collectPayloads renders a process's delivery sequence for comparison.
func collectPayloads(c Cluster, id ProcessID) []string {
	var out []string
	for _, d := range c.Deliveries(id) {
		out = append(out, string(d.Payload))
	}
	return out
}

// snapshotNames returns the sorted metric name sets of a snapshot.
func snapshotNames(s MetricsSnapshot) (counters, gauges, hists []string) {
	for k := range s.Counters {
		counters = append(counters, k)
	}
	for k := range s.Gauges {
		gauges = append(gauges, k)
	}
	for k := range s.Histograms {
		hists = append(hists, k)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return
}

// TestClusterParityGroupVsLive drives the same scenario through the
// runtime-independent Cluster interface on the simulator and on the
// wall-clock runtime over every medium, and checks that what the
// application observes — delivery sequences, final configuration,
// metric vocabulary — is identical.
func TestClusterParityGroupVsLive(t *testing.T) {
	payloads := []string{"alpha", "bravo", "charlie"}

	// Simulator: submit at virtual time 500ms (well after formation),
	// observing only through the Cluster interface.
	g := NewGroup(Options{NumProcesses: 3, Seed: 7})
	var sim Cluster = g
	g.At(500*time.Millisecond, func() {
		for _, p := range payloads {
			if err := sim.Submit(sim.IDs()[0], []byte(p), Safe); err != nil {
				t.Errorf("sim submit %q: %v", p, err)
			}
		}
	})
	g.Run(3 * time.Second)
	defer sim.Close()
	checkParityRun(t, sim, payloads)
	sm := sim.Metrics()
	sc, sg, sh := snapshotNames(sm.Total)

	for _, network := range []string{"mem", "udp", "tcp"} {
		t.Run(network, func(t *testing.T) {
			// The same scenario under real concurrency.
			lg := newLive(t, 3, network)
			var live Cluster = lg
			if !lg.WaitOperational(10 * time.Second) {
				t.Fatal("live group did not form")
			}
			for _, p := range payloads {
				if err := live.Submit(live.IDs()[0], []byte(p), Safe); err != nil {
					t.Fatalf("live submit %q: %v", p, err)
				}
			}
			for _, id := range lg.IDs() {
				if !lg.WaitDeliveries(id, len(payloads), 10*time.Second) {
					t.Fatalf("live %s delivered %d of %d", id, len(live.Deliveries(id)), len(payloads))
				}
			}
			if !reflect.DeepEqual(sim.IDs(), live.IDs()) {
				t.Fatalf("IDs diverge: sim=%v live=%v", sim.IDs(), live.IDs())
			}
			checkParityRun(t, live, payloads)

			// The metric vocabulary must be identical between the
			// runtimes: same scope names (the "net" medium scope
			// included), same counter/gauge/histogram catalogs, so
			// dashboards and comparisons work series-for-series.
			lm := live.Metrics()
			if !reflect.DeepEqual(sm.ProcNames(), lm.ProcNames()) {
				t.Errorf("scope names diverge: sim=%v live=%v", sm.ProcNames(), lm.ProcNames())
			}
			lc, lgn, lh := snapshotNames(lm.Total)
			if !reflect.DeepEqual(sc, lc) || !reflect.DeepEqual(sg, lgn) || !reflect.DeepEqual(sh, lh) {
				t.Error("metric name sets diverge between runtimes")
			}
		})
	}
}

// checkParityRun checks one runtime's side of the parity scenario: every
// process delivered exactly payloads, ended in a 3-member configuration
// reported through ConfigChanges, and the execution did protocol work.
func checkParityRun(t *testing.T, c Cluster, payloads []string) {
	t.Helper()
	for _, id := range c.IDs() {
		if got := collectPayloads(c, id); !reflect.DeepEqual(got, payloads) {
			t.Errorf("deliveries at %s = %v, want %v", id, got, payloads)
		}
		ccs := c.ConfigChanges(id)
		if len(ccs) == 0 {
			t.Fatalf("%s has no configuration changes", id)
		}
		if last := ccs[len(ccs)-1].Config; last.Members.Size() != 3 {
			t.Errorf("%s final config has %d members", id, last.Members.Size())
		}
	}
	if len(c.History()) == 0 {
		t.Error("empty formal-model history")
	}
	tot := c.Metrics().Total
	if tot.Counters["totem_token_rotations_total"] == 0 {
		t.Error("no token rotations recorded")
	}
	if tot.Counters["totem_msgs_delivered_total"] == 0 {
		t.Error("no deliveries recorded")
	}
}

// taggingObserver appends "tag:kind" notes to a shared log.
type taggingObserver struct {
	tag string
	log *[]string
}

func (o taggingObserver) OnDelivery(id ProcessID, d Delivery) {
	*o.log = append(*o.log, o.tag+":del")
}

func (o taggingObserver) OnConfigChange(id ProcessID, c ConfigEvent) {
	*o.log = append(*o.log, o.tag+":cfg")
}

// TestMultiObserverRegistrationOrder: every registered observer sees every
// event, in registration order.
func TestMultiObserverRegistrationOrder(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 2, Seed: 3})
	var log []string
	g.AddObserver(ObserverFuncs{
		Delivery: func(id ProcessID, d Delivery) { log = append(log, "field:del") },
	})
	g.AddObserver(taggingObserver{"a", &log})
	g.AddObserver(taggingObserver{"b", &log})
	g.AddObserver(taggingObserver{"c", &log})
	g.Send(500*time.Millisecond, g.IDs()[0], []byte("x"), Safe)
	g.Run(2 * time.Second)

	var dels []string
	for _, e := range log {
		if strings.HasSuffix(e, ":del") {
			dels = append(dels, e)
		}
	}
	// 2 processes deliver once each; each delivery logs field, a, b, c.
	want := []string{
		"field:del", "a:del", "b:del", "c:del",
		"field:del", "a:del", "b:del", "c:del",
	}
	if !reflect.DeepEqual(dels, want) {
		t.Fatalf("delivery observer order = %v, want %v", dels, want)
	}
	// Observers also saw configuration changes.
	counts := map[string]int{}
	for _, e := range log {
		if strings.HasSuffix(e, ":cfg") {
			counts[strings.TrimSuffix(e, ":cfg")]++
		}
	}
	if counts["a"] == 0 || counts["a"] != counts["b"] || counts["b"] != counts["c"] {
		t.Fatalf("config observer counts diverge: %v", counts)
	}
}

// TestNewTopicsAfterStartFails: the group layer derives state from the
// complete total order, so attaching it after the simulation has begun
// must fail loudly instead of silently missing the prefix.
func TestNewTopicsAfterStartFails(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 2, Seed: 1})
	if _, err := NewTopics(g); err != nil {
		t.Fatalf("before start: %v", err)
	}
	g.Run(time.Second)
	if _, err := NewTopics(g); !errors.Is(err, ErrStarted) {
		t.Fatalf("after start: err = %v, want ErrStarted", err)
	}
}

// TestLiveGroupObserversAndMetricsUnderRace drives a LiveGroup with a
// registered observer while concurrently snapshotting metrics and serving
// the HTTP endpoint — the -race CI step leans on this test.
func TestLiveGroupObserversAndMetricsUnderRace(t *testing.T) {
	g := newLive(t, 3, "mem")
	if !g.WaitOperational(10 * time.Second) {
		t.Fatal("live group did not form")
	}
	var c Cluster = g

	type note struct {
		id      ProcessID
		payload string
	}
	notes := make(chan note, 64)
	c.AddObserver(ObserverFuncs{
		Delivery: func(id ProcessID, d Delivery) {
			notes <- note{id, string(d.Payload)}
		},
	})

	// Snapshot metrics concurrently with protocol traffic.
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Metrics()
				_ = g.ObsEvents()
			}
		}
	}()

	addr, err := g.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ServeMetrics("127.0.0.1:0"); err == nil {
		t.Error("second ServeMetrics should fail while one is running")
	}

	const n = 10
	for i := 0; i < n; i++ {
		if err := c.Submit(c.IDs()[0], []byte(fmt.Sprintf("m%d", i)), Agreed); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range g.IDs() {
		if !g.WaitDeliveries(id, n, 10*time.Second) {
			t.Fatalf("%s delivered %d of %d", id, len(c.Deliveries(id)), n)
		}
	}
	// The observer saw every delivery at every process.
	seen := map[ProcessID]int{}
	deadline := time.After(5 * time.Second)
	for total := 0; total < n*len(g.IDs()); {
		select {
		case nt := <-notes:
			seen[nt.id]++
			total++
		case <-deadline:
			t.Fatalf("observer saw %v, want %d each", seen, n)
		}
	}

	// The endpoint serves Prometheus text with catalog series...
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "evs_totem_token_rotations_total") {
		t.Error("prometheus endpoint missing token rotation series")
	}
	// ...and JSON when asked.
	resp, err = http.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("json format served Content-Type %q", ct)
	}
	if !strings.Contains(string(jbody), "totem_token_rotations_total") {
		t.Error("json endpoint missing token rotation series")
	}

	close(stop)
	<-snapDone
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Closing stops the endpoint.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after Close")
	}
}
