package evs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/node"
)

// The wall-clock runtime runs the same stack under real concurrency;
// these tests are timing-dependent by nature, so they use generous
// timeouts and assert semantic properties (ordering, conformance), not
// schedules.

// newLive starts an n-process LiveGroup on network, closed at test end.
// Socket networks use the loopback test timing profile.
func newLive(t *testing.T, n int, network string) *LiveGroup {
	t.Helper()
	var cfg *node.Config
	if network != "mem" {
		c := fastNetConfig()
		cfg = &c
	}
	g, err := NewLiveGroup(n, network, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestLiveGroupFormsAndDelivers(t *testing.T) {
	g := newLive(t, 3, "mem")
	if !g.WaitOperational(5 * time.Second) {
		t.Fatal("live group did not become operational")
	}
	ids := g.IDs()
	if err := g.Submit(ids[0], []byte("hello"), Safe); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !g.WaitDeliveries(id, 1, 5*time.Second) {
			t.Fatalf("%s did not deliver", id)
		}
	}
	for _, id := range ids {
		ds := g.Deliveries(id)
		if string(ds[0].Payload) != "hello" || ds[0].Service != Safe {
			t.Fatalf("%s delivery %+v", id, ds[0])
		}
	}
	if vs := g.Check(false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestLiveGroupTotalOrderUnderConcurrentSenders(t *testing.T) {
	g := newLive(t, 4, "mem")
	if !g.WaitOperational(5 * time.Second) {
		t.Fatal("live group did not become operational")
	}
	ids := g.IDs()
	const perSender = 25
	done := make(chan error, len(ids))
	for _, id := range ids {
		id := id
		go func() {
			for i := 0; i < perSender; i++ {
				if err := g.Submit(id, []byte(fmt.Sprintf("%s/%d", id, i)), Agreed); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for range ids {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	total := perSender * len(ids)
	for _, id := range ids {
		if !g.WaitDeliveries(id, total, 10*time.Second) {
			t.Fatalf("%s delivered %d of %d", id, len(g.Deliveries(id)), total)
		}
	}
	// Identical delivery order everywhere.
	ref := g.Deliveries(ids[0])
	for _, id := range ids[1:] {
		ds := g.Deliveries(id)
		for i := range ref {
			if ds[i].Msg != ref[i].Msg {
				t.Fatalf("%s diverges at %d: %v vs %v", id, i, ds[i].Msg, ref[i].Msg)
			}
		}
	}
	if vs := g.Check(false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestLiveGroupPartitionAndMerge(t *testing.T) {
	g := newLive(t, 4, "mem")
	if !g.WaitOperational(5 * time.Second) {
		t.Fatal("initial formation failed")
	}
	partitionAndMerge(t, g)
	if vs := g.Check(false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestLiveGroupCrashRecover(t *testing.T) {
	g := newLive(t, 3, "mem")
	if !g.WaitOperational(5 * time.Second) {
		t.Fatal("initial formation failed")
	}
	crashAndRecover(t, g)
	if vs := g.Check(false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

// TestLiveGroupFaultsOnEveryNetwork runs one partition/merge and
// crash/recover scenario on each medium: the partition filter and the
// daemon's crash control work the same over the hub and real sockets.
func TestLiveGroupFaultsOnEveryNetwork(t *testing.T) {
	for _, network := range []string{"mem", "udp", "tcp"} {
		t.Run(network, func(t *testing.T) {
			if network != "mem" && testing.Short() {
				t.Skip("multi-second socket ring test")
			}
			g := newLive(t, 4, network)
			if !g.WaitOperational(20 * time.Second) {
				t.Fatal("initial formation failed")
			}
			partitionAndMerge(t, g)
			crashAndRecover(t, g)
			if vs := g.Check(false); len(vs) != 0 {
				t.Fatalf("violations: %v", vs)
			}
			if g.Metrics().Procs["net"].Counters["net_packets_cut_total"] == 0 {
				t.Error("the partition cut nothing on the net scope")
			}
		})
	}
}

// partitionAndMerge splits a formed group in halves, checks both keep
// delivering with nothing crossing the cut, and merges it again.
func partitionAndMerge(t *testing.T, g *LiveGroup) {
	t.Helper()
	ids := g.IDs()
	half := len(ids) / 2
	g.Partition(ids[:half], ids[half:])
	// Both components keep operating: sends succeed and deliver within
	// each side.
	deadline := time.Now().Add(10 * time.Second)
	leftOK, rightOK := false, false
	for time.Now().Before(deadline) && (!leftOK || !rightOK) {
		_ = g.Submit(ids[0], []byte("L"), Agreed)
		_ = g.Submit(ids[half], []byte("R"), Agreed)
		time.Sleep(20 * time.Millisecond)
		leftOK = hasPayload(g.Deliveries(ids[half-1]), "L")
		rightOK = hasPayload(g.Deliveries(ids[len(ids)-1]), "R")
	}
	if !leftOK || !rightOK {
		t.Fatalf("partitioned progress: left=%v right=%v", leftOK, rightOK)
	}
	// No cross-component leakage.
	if hasPayload(g.Deliveries(ids[0]), "R") || hasPayload(g.Deliveries(ids[len(ids)-1]), "L") {
		t.Fatal("messages leaked across the partition")
	}
	g.Merge()
	if !g.WaitOperational(20 * time.Second) {
		t.Fatal("merge did not converge")
	}
}

// crashAndRecover fails the last process, checks the survivors keep
// delivering, and brings it back into one configuration.
func crashAndRecover(t *testing.T, g *LiveGroup) {
	t.Helper()
	ids := g.IDs()
	victim := ids[len(ids)-1]
	g.Crash(victim)
	if err := g.Submit(victim, nil, Safe); err == nil {
		t.Fatal("send at crashed process should fail")
	}
	// Survivors reconfigure and keep delivering.
	deadline := time.Now().Add(10 * time.Second)
	ok := false
	for time.Now().Before(deadline) && !ok {
		_ = g.Submit(ids[0], []byte("while-down"), Safe)
		time.Sleep(20 * time.Millisecond)
		ok = hasPayload(g.Deliveries(ids[1]), "while-down")
	}
	if !ok {
		t.Fatal("survivors made no progress after the crash")
	}
	g.Recover(victim)
	if !g.WaitOperational(20 * time.Second) {
		t.Fatalf("recovered process did not rejoin (mode %s)", g.ProcStatus(victim).Mode)
	}
	if st := g.ProcStatus(victim); st.Mode != "operational" || len(st.Members) != len(ids) {
		t.Fatalf("recovered process status %+v, want operational with %d members", st, len(ids))
	}
}

func TestLiveGroupCloseIdempotent(t *testing.T) {
	g, err := NewLiveGroup(2, "mem", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !g.WaitOperational(5 * time.Second) {
		t.Fatal("formation failed")
	}
	g.Close()
	g.Close() // must not panic or deadlock
}

func hasPayload(ds []Delivery, want string) bool {
	for _, d := range ds {
		if string(d.Payload) == want {
			return true
		}
	}
	return false
}
