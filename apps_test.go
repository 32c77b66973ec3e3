package evs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apps/airline"
	"repro/internal/apps/atm"
	"repro/internal/apps/radar"
	"repro/internal/model"
)

// appEvent is one entry of a process's app-facing stream.
type appEvent struct {
	conf    *Configuration
	msg     MessageID
	payload []byte
}

// mergedStream reconstructs a process's app-facing event order — its
// configuration changes interleaved with its application deliveries — from
// the group's recorded history.
func mergedStream(g *Group, id ProcessID) []appEvent {
	var out []appEvent
	confs := g.ConfigChanges(id)
	dels := g.Deliveries(id)
	ci, di := 0, 0
	for _, e := range g.History() {
		if e.Proc != id {
			continue
		}
		switch e.Type {
		case model.EventDeliverConf:
			if ci < len(confs) && confs[ci].Config.ID == e.Config {
				c := confs[ci].Config
				out = append(out, appEvent{conf: &c})
				ci++
			}
		case model.EventDeliver:
			// Deliveries consumed by the primary layer are not in
			// the app stream; match by message identifier.
			if di < len(dels) && dels[di].Msg == e.Msg {
				out = append(out, appEvent{msg: dels[di].Msg, payload: dels[di].Payload})
				di++
			}
		}
	}
	return out
}

// feedAirline replays a process's stream into its airline replica from the
// given offset, broadcasting the replica's reconciliation state messages.
// It returns the new offset.
func feedAirline(t *testing.T, g *Group, id ProcessID, r *airline.Replica, from int) int {
	t.Helper()
	evts := mergedStream(g, id)
	for _, e := range evts[from:] {
		if e.conf != nil {
			state, err := r.OnConfig(*e.conf)
			if err != nil {
				t.Fatalf("%s: OnConfig: %v", id, err)
			}
			if state != nil {
				g.submit(id, state, Safe)
			}
		} else {
			r.OnDeliver(e.msg.Sender, e.payload)
		}
	}
	return len(evts)
}

// mustEncodeAirline fails the test on an encoding error.
func mustEncodeAirline(t *testing.T, m airline.Msg) []byte {
	t.Helper()
	b, err := airline.Encode(m)
	if err != nil {
		t.Fatalf("airline encode: %v", err)
	}
	return b
}

// mustEncodeRadar fails the test on an encoding error.
func mustEncodeRadar(t *testing.T, r radar.Reading) []byte {
	t.Helper()
	b, err := radar.Encode(r)
	if err != nil {
		t.Fatalf("radar encode: %v", err)
	}
	return b
}

func TestAirlineOverEVSAllocationNeverOverbooks(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 4, Seed: 21})
	ids := g.IDs()
	full := NewProcessSet(ids...)
	replicas := make(map[ProcessID]*airline.Replica)
	for _, id := range ids {
		replicas[id] = airline.New(id, full, airline.PolicyAllocation, map[string]int{"F1": 12})
	}
	offsets := make(map[ProcessID]int)
	feedAll := func() {
		for _, id := range ids {
			offsets[id] = feedAirline(t, g, id, replicas[id], offsets[id])
		}
	}

	// Pre-partition sales.
	for i := 0; i < 4; i++ {
		g.Send(time.Duration(150+10*i)*time.Millisecond, ids[i%4],
			mustEncodeAirline(t, airline.Msg{Kind: airline.KindSell, Flight: "F1"}), Safe)
	}
	g.Partition(300*time.Millisecond, ids[:2], ids[2:])
	// Heavy selling in both components.
	for i := 0; i < 10; i++ {
		g.Send(time.Duration(500+10*i)*time.Millisecond, ids[0],
			mustEncodeAirline(t, airline.Msg{Kind: airline.KindSell, Flight: "F1"}), Safe)
		g.Send(time.Duration(500+10*i)*time.Millisecond, ids[2],
			mustEncodeAirline(t, airline.Msg{Kind: airline.KindSell, Flight: "F1"}), Safe)
	}
	g.Merge(800 * time.Millisecond)
	// Drive the replicas mid-run so the post-merge configuration change
	// triggers their reconciliation broadcasts.
	g.At(1200*time.Millisecond, feedAll)
	g.Run(2 * time.Second)
	feedAll()

	for _, id := range ids {
		r := replicas[id]
		if over := r.Overbooked("F1"); over != 0 {
			t.Fatalf("%s: allocation policy overbooked %d seats", id, over)
		}
	}
	// All replicas agree after reconciliation.
	ref := replicas[ids[0]].Sold("F1")
	if ref == 0 {
		t.Fatal("no sales recorded")
	}
	for _, id := range ids[1:] {
		if replicas[id].Sold("F1") != ref {
			t.Fatalf("%s sold %d, %s sold %d: replicas diverged",
				ids[0], ref, id, replicas[id].Sold("F1"))
		}
	}
	requireCleanGroup(t, g, true)
}

func TestATMOverEVSOfflinePostsOnReconnect(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 22})
	ids := g.IDs()
	full := NewProcessSet(ids...)
	replicas := make(map[ProcessID]*atm.Replica)
	for _, id := range ids {
		replicas[id] = atm.New(id, full, map[string]int{"acct": 100}, 40)
	}

	// Online withdrawal while fully connected.
	g.At(200*time.Millisecond, func() {
		msg, _, err := replicas[ids[0]].Withdraw("acct", 30)
		if err != nil {
			t.Errorf("withdraw: %v", err)
		}
		if msg != nil {
			g.submit(ids[0], msg, Safe)
		}
	})
	g.Partition(300*time.Millisecond, ids[:1], ids[1:])
	fed := make(map[ProcessID]int)
	// Offline withdrawal in the singleton component; post on merge.
	g.At(600*time.Millisecond, func() {
		// Feed the replica its view of the world so it knows it is
		// partitioned, then withdraw offline.
		fed[ids[0]] = feedATM(t, g, ids[0], replicas[ids[0]], 0)
		_, d, _ := replicas[ids[0]].Withdraw("acct", 25)
		if d == nil || !d.Approved || !d.Offline {
			t.Errorf("offline withdrawal decision %+v", d)
		}
	})
	g.Merge(800 * time.Millisecond)
	g.At(1200*time.Millisecond, func() {
		// On reconnection the replica posts its pending batch.
		batch := feedATM(t, g, ids[0], replicas[ids[0]], fed[ids[0]])
		fed[ids[0]] = batch
	})
	g.Run(2 * time.Second)
	for _, id := range ids {
		feedATM(t, g, id, replicas[id], fed[id])
	}

	for _, id := range ids {
		if got := replicas[id].Balance("acct"); got != 45 {
			t.Fatalf("%s balance %d, want 45 (100-30 online -25 posted)", id, got)
		}
	}
	requireCleanGroup(t, g, true)
}

// feedATM replays a process's stream into its ATM replica from the given
// offset, broadcasting any posting batch the replica produces. It returns
// the new offset.
func feedATM(t *testing.T, g *Group, id ProcessID, r *atm.Replica, from int) int {
	t.Helper()
	evts := mergedStream(g, id)
	for _, e := range evts[from:] {
		if e.conf != nil {
			batch, err := r.OnConfig(*e.conf)
			if err != nil {
				t.Fatalf("%s: OnConfig: %v", id, err)
			}
			if batch != nil {
				g.submit(id, batch, Safe)
			}
		} else {
			r.OnDeliver(e.payload)
		}
	}
	return len(evts)
}

func TestRadarOverEVSDegradesUnderPartition(t *testing.T) {
	ids := []ProcessID{"d1", "s1", "s2"}
	g := NewGroup(Options{Processes: ids, Seed: 23})
	sensors := NewProcessSet("s1", "s2")
	display := radar.NewDisplay("d1", sensors)
	good := radar.NewSensor("s1", 0.9)
	poor := radar.NewSensor("s2", 0.4)

	g.Send(200*time.Millisecond, "s1", mustEncodeRadar(t, good.Observe("T1", 10, 10)), Agreed)
	g.Send(210*time.Millisecond, "s2", mustEncodeRadar(t, poor.Observe("T1", 10.5, 10.5)), Agreed)
	// The best sensor partitions away.
	g.Partition(400*time.Millisecond, []ProcessID{"d1", "s2"}, []ProcessID{"s1"})
	g.Send(600*time.Millisecond, "s2", mustEncodeRadar(t, poor.Observe("T1", 11, 11)), Agreed)
	g.Run(time.Second)

	for _, e := range mergedStream(g, "d1") {
		if e.conf != nil {
			display.OnConfig(*e.conf)
		} else {
			display.OnDeliver(e.payload)
		}
	}
	best, ok := display.Best("T1")
	if !ok {
		t.Fatal("display blanked although s2 is connected")
	}
	if best.Sensor != "s2" {
		t.Fatalf("best sensor %s, want degraded s2", best.Sensor)
	}
	if best.X != 11 {
		t.Fatalf("best reading %v, want the fresh partitioned reading", best.X)
	}
	requireCleanGroup(t, g, true)
}

func TestMergedStreamOrdersConfsAndDeliveries(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 24})
	ids := g.IDs()
	g.Send(200*time.Millisecond, ids[0], []byte("x"), Safe)
	g.Run(600 * time.Millisecond)
	evts := mergedStream(g, ids[1])
	if len(evts) < 2 {
		t.Fatalf("stream %v", evts)
	}
	if evts[0].conf == nil {
		t.Fatal("first event must be a configuration change")
	}
	foundDelivery := false
	for _, e := range evts {
		if e.conf == nil && string(e.payload) == "x" {
			foundDelivery = true
		}
	}
	if !foundDelivery {
		t.Fatal("delivery missing from merged stream")
	}
	_ = fmt.Sprint(evts)
}
