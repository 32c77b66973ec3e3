package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
)

// runTiny runs one workload for a fraction of a second and returns its
// parsed result line.
func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", trace, "--spans", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %s: exit %d\nstderr:\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "# provenance ") {
		t.Errorf("first line is not the provenance header: %q", lines[0])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

func metricNames(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func resultNames(res result) []string {
	var out []string
	for k := range res.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestTinyRunsPassGate runs every workload at a tiny size, untraced and
// traced: each must pass its correctness gate and print exactly its
// metric set.
func TestTinyRunsPassGate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket and simulator runs")
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			res := runTiny(t, name, trace)
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := metricNames(endToEnd)
			if trace == "1" {
				want = metricNames(perLayer)
			}
			if got := resultNames(res); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s --trace %s: metrics %v, want %v", name, trace, got, want)
			}
			if trace == "0" {
				for k, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, v.Value)
					}
				}
			}
			if trace == "1" && name != "udp-failover" && res.Metrics["node.configs_installed"].Value != 0 {
				t.Errorf("%s: %v configurations installed inside the window", name, res.Metrics["node.configs_installed"].Value)
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(names), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// gateOf builds a two-member gate and feeds both members the same
// stream of n messages per sender, interleaved.
func gateOf(n int) (*gate, []uint64, [][]model.MessageID, [][][]byte) {
	g := newGate(7, []model.ProcessID{"p01", "p02"})
	var ids [][]model.MessageID
	var bodies [][][]byte
	for m := 0; m < 2; m++ {
		ids = append(ids, nil)
		bodies = append(bodies, nil)
	}
	for seq := uint64(1); seq <= uint64(n); seq++ {
		for s := 0; s < 2; s++ {
			id := model.MessageID{Sender: g.ids[s], SenderSeq: seq}
			body := makePayload(7, s, seq, int64(seq), model.Agreed)
			for m := 0; m < 2; m++ {
				ids[m] = append(ids[m], id)
				bodies[m] = append(bodies[m], body)
			}
		}
	}
	return g, []uint64{uint64(n), uint64(n)}, ids, bodies
}

func feed(g *gate, ids [][]model.MessageID, bodies [][][]byte) {
	for m := range ids {
		for i := range ids[m] {
			g.deliver(m, ids[m][i], bodies[m][i], int64(i))
		}
	}
}

var bothLive = []bool{true, true}

func TestGateAcceptsCleanStream(t *testing.T) {
	g, acc, ids, bodies := gateOf(5)
	feed(g, ids, bodies)
	if errs := g.verify(bothLive, acc, true); len(errs) != 0 {
		t.Fatalf("clean stream rejected: %v", errs)
	}
}

func TestGateRejectsDroppedDelivery(t *testing.T) {
	g, acc, ids, bodies := gateOf(5)
	ids[1] = append(ids[1][:3], ids[1][4:]...)
	bodies[1] = append(bodies[1][:3], bodies[1][4:]...)
	feed(g, ids, bodies)
	if errs := g.verify(bothLive, acc, true); len(errs) == 0 {
		t.Fatal("a dropped delivery passed the gate")
	}
}

func TestGateRejectsSwappedOrder(t *testing.T) {
	// Adjacent deliveries from different senders: only the total-order
	// hash can tell.
	g, acc, ids, bodies := gateOf(5)
	ids[1][2], ids[1][3] = ids[1][3], ids[1][2]
	bodies[1][2], bodies[1][3] = bodies[1][3], bodies[1][2]
	feed(g, ids, bodies)
	if errs := g.verify(bothLive, acc, true); len(errs) == 0 {
		t.Fatal("deliveries in a different total order passed the gate")
	}
	// Two deliveries of one sender swapped: a sender-order violation.
	g, acc, ids, bodies = gateOf(5)
	ids[1][0], ids[1][2] = ids[1][2], ids[1][0]
	bodies[1][0], bodies[1][2] = bodies[1][2], bodies[1][0]
	feed(g, ids, bodies)
	if errs := g.verify(bothLive, acc, true); len(errs) == 0 {
		t.Fatal("a sender's messages out of order passed the gate")
	}
}

// TestGatePartitionedHistory checks the relaxed gate of members that a
// transient partition split: another sender's messages may be missing,
// a member's own may not.
func TestGatePartitionedHistory(t *testing.T) {
	g, acc, ids, bodies := gateOf(5)
	ids[1] = append(ids[1][:2], ids[1][3:]...) // member 1 misses sender 0's seq 2
	bodies[1] = append(bodies[1][:2], bodies[1][3:]...)
	feed(g, ids, bodies)
	if errs := g.verify(bothLive, acc, false); len(errs) != 0 {
		t.Fatalf("a message missed across a partition was rejected: %v", errs)
	}
	g, acc, ids, bodies = gateOf(5)
	ids[1] = append(ids[1][:3], ids[1][4:]...) // member 1 misses its own seq 2
	bodies[1] = append(bodies[1][:3], bodies[1][4:]...)
	feed(g, ids, bodies)
	if errs := g.verify(bothLive, acc, false); len(errs) == 0 {
		t.Fatal("a member missing its own message passed the gate")
	}
}

func TestGateRejectsCorruptPayload(t *testing.T) {
	g, acc, ids, bodies := gateOf(5)
	bad := append([]byte(nil), bodies[1][4]...)
	bad[30] ^= 1
	bodies[1][4] = bad
	feed(g, ids, bodies)
	if errs := g.verify(bothLive, acc, true); len(errs) == 0 {
		t.Fatal("a corrupted payload passed the gate")
	}
}
