//go:build !race

// The injected defect below is itself a data race (the generator rewrites
// a buffer the node still holds), so the race detector would report it
// instead of letting the gate judge it.

package main

import (
	"testing"
	"time"
)

// TestGateRejectsReusedPayloadBuffer drives a real ring with a generator
// that reuses one payload buffer for every send. node.Submit retains the
// slice until the message is sequenced, so later sends overwrite earlier
// ones in flight, and the gate must fail the run.
func TestGateRejectsReusedPayloadBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("socket ring")
	}
	c, _, err := startCluster(clusterSpec{network: "udp", size: 4, seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	g := newGenerator(c, 9)
	g.reuse = true
	g.startOpen(5000, time.Now())
	g.paceUntil(time.Now().Add(300*time.Millisecond), nil)
	live := append([]bool(nil), c.live...)
	c.gate.waitDrained(live, g.accepted, true, 2*time.Second)
	if errs := c.gate.verify(live, g.accepted, true); len(errs) == 0 {
		t.Fatal("a reused payload buffer passed the gate")
	}
}
