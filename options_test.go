package evs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/node"
)

// fastNetConfig scales the deployment timing profile down for loopback
// tests (same profile the daemon package's own tests use).
func fastNetConfig() node.Config {
	cfg := daemon.DefaultNetConfig()
	cfg.TokenLoss = 150 * time.Millisecond
	cfg.TokenRetrans = 25 * time.Millisecond
	cfg.JoinRetry = 40 * time.Millisecond
	cfg.CommitTimeout = 100 * time.Millisecond
	cfg.RecoveryRetry = 30 * time.Millisecond
	cfg.RecoveryTimeout = 500 * time.Millisecond
	return cfg
}

func TestNewDefaultsToSim(t *testing.T) {
	c, err := New(WithNumProcesses(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*Group)
	if !ok {
		t.Fatalf("New() = %T, want *Group", c)
	}
	if len(g.IDs()) != 4 {
		t.Fatalf("IDs = %v", g.IDs())
	}
	// The seed reached the simulator: a short run is deterministic.
	g.Send(100*time.Millisecond, g.IDs()[0], []byte("x"), Safe)
	g.Run(time.Second)
	if len(g.Deliveries(g.IDs()[0])) == 0 {
		t.Fatal("no deliveries in sim runtime")
	}
}

func TestNewSimOptionsPassThrough(t *testing.T) {
	c, err := New(WithSimOptions(Options{NumProcesses: 2, Seed: 9, EnableVS: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*Group); !ok {
		t.Fatalf("New() = %T, want *Group", c)
	}
	if n := len(c.IDs()); n != 2 {
		t.Fatalf("got %d processes, want 2", n)
	}
}

func TestNewExplicitProcesses(t *testing.T) {
	c, err := New(WithProcesses("alpha", "beta"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Fatalf("IDs = %v", ids)
	}
	// Named processes are sim-only; the socket runtimes reject them.
	if _, err := New(WithProcesses("alpha"), WithRuntime(RuntimeUDP)); err == nil {
		t.Fatal("UDP runtime accepted explicit process names")
	}
	if _, err := New(WithProcesses("alpha"), WithRuntime(RuntimeLive)); err == nil {
		t.Fatal("live runtime accepted explicit process names")
	}
}

func TestNewLiveRuntime(t *testing.T) {
	c, err := New(WithRuntime(RuntimeLive), WithNumProcesses(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*LiveGroup)
	if !ok {
		t.Fatalf("New() = %T, want *LiveGroup", c)
	}
	if !g.WaitOperational(10 * time.Second) {
		t.Fatal("live group never formed")
	}
	if err := c.Submit(g.IDs()[0], []byte("hi"), Agreed); err != nil {
		t.Fatal(err)
	}
	if !g.WaitDeliveries(g.IDs()[1], 1, 10*time.Second) {
		t.Fatal("live delivery never arrived")
	}
}

// TestNewUDPRuntime drives the real-socket runtime through the uniform
// constructor: ring forms over loopback UDP, traffic totally orders, a
// kill shrinks the membership everywhere, and the recorded trace passes
// the specification checker.
func TestNewUDPRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket ring test")
	}
	c, err := New(WithRuntime(RuntimeUDP), WithNumProcesses(4),
		WithNodeConfig(fastNetConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, ok := c.(*LiveGroup)
	if !ok {
		t.Fatalf("New() = %T, want *LiveGroup", c)
	}
	ids := g.IDs()
	if !g.WaitOperational(20 * time.Second) {
		t.Fatalf("ring never formed; p01 status %+v", g.ProcStatus(ids[0]))
	}

	for i, id := range ids {
		if err := g.Submit(id, []byte(fmt.Sprintf("m%d", i)), Agreed); err != nil {
			t.Fatalf("%s submit: %v", id, err)
		}
	}
	for _, id := range ids {
		if !g.WaitDeliveries(id, 4, 20*time.Second) {
			t.Fatalf("%s delivered %d of 4", id, len(g.Deliveries(id)))
		}
	}
	// Identical total order everywhere.
	ref := g.Deliveries(ids[0])
	for _, id := range ids[1:] {
		ds := g.Deliveries(id)
		for i := range ref {
			if ds[i].Msg != ref[i].Msg {
				t.Fatalf("%s disagrees at %d: %v vs %v", id, i, ds[i].Msg, ref[i].Msg)
			}
		}
	}

	// Kill p04; the survivors deliver a 3-member configuration.
	if err := g.Kill(ids[3]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := 0
		for _, id := range ids[:3] {
			for _, ce := range g.ConfigChanges(id) {
				if ce.Config.ID.IsRegular() && ce.Config.Members.Size() == 3 {
					done++
					break
				}
			}
		}
		if done == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never installed the 3-member ring; %d of 3 did", done)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if vs := g.Check(false); len(vs) > 0 {
		t.Fatalf("spec violations: %v", vs)
	}
	if len(g.History()) == 0 {
		t.Fatal("empty history")
	}
	if g.Metrics().Total.Counters["wire_packets_out_total"] == 0 {
		t.Fatal("no wire packets counted — traffic did not cross the codec path")
	}
}

func TestNewTCPRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second socket ring test")
	}
	c, err := New(WithRuntime(RuntimeTCP), WithNumProcesses(3),
		WithNodeConfig(fastNetConfig()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := c.(*LiveGroup)
	if !g.WaitOperational(20 * time.Second) {
		t.Fatal("TCP ring never formed")
	}
	if err := g.Submit(g.IDs()[0], []byte("over tcp"), Safe); err != nil {
		t.Fatal(err)
	}
	for _, id := range g.IDs() {
		if !g.WaitDeliveries(id, 1, 20*time.Second) {
			t.Fatalf("%s never delivered", id)
		}
	}
	if vs := g.Check(false); len(vs) > 0 {
		t.Fatalf("spec violations: %v", vs)
	}
}

func TestNewRejectsUnknownRuntime(t *testing.T) {
	if _, err := New(WithRuntime(Runtime(99))); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}
