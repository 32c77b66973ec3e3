// ATM: the paper's second motivating application, contrasted across the
// two layers this library offers. Over raw extended virtual synchrony, an
// ATM cut off from the primary component keeps dispensing cash against a
// local offline limit and posts the transactions when the network heals.
// Over the virtual synchrony filter, the same ATM is blocked — the paper's
// argument for why partitionable operation matters.
//
// Run with: go run ./examples/atm
package main

import (
	"fmt"
	"os"
	"time"

	evs "repro"
	"repro/internal/apps/atm"
	"repro/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// branch couples an ATM replica to its process.
type branch struct {
	id      evs.ProcessID
	replica *atm.Replica
	fed     int
}

// sync replays the process's app stream into the replica, broadcasting
// posting batches the replica emits on reconnection.
func (b *branch) sync(g *evs.Group) {
	confs := g.ConfigChanges(b.id)
	dels := g.Deliveries(b.id)
	type ev struct {
		conf    *evs.Configuration
		payload []byte
	}
	var evts []ev
	ci, di := 0, 0
	for _, e := range g.History() {
		if e.Proc != b.id {
			continue
		}
		switch e.Type {
		case model.EventDeliverConf:
			if ci < len(confs) && confs[ci].Config.ID == e.Config {
				c := confs[ci].Config
				evts = append(evts, ev{conf: &c})
				ci++
			}
		case model.EventDeliver:
			if di < len(dels) && dels[di].Msg == e.Msg {
				evts = append(evts, ev{payload: dels[di].Payload})
				di++
			}
		}
	}
	for _, e := range evts[b.fed:] {
		if e.conf != nil {
			batch, err := b.replica.OnConfig(*e.conf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: posting deferred: %v\n", b.id, err)
				continue
			}
			if batch != nil {
				g.Send(g.Now(), b.id, batch, evs.Safe)
			}
		} else {
			b.replica.OnDeliver(e.payload)
		}
	}
	b.fed = len(evts)
}

func run() error {
	g := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 11, EnableVS: true})
	ids := g.IDs()
	full := evs.NewProcessSet(ids...)
	branches := make(map[evs.ProcessID]*branch)
	for _, id := range ids {
		branches[id] = &branch{id: id, replica: atm.New(id, full, map[string]int{"alice": 120}, 50)}
	}
	syncAll := func() {
		for _, id := range ids {
			branches[id].sync(g)
		}
	}
	remote := ids[2] // the branch that will be cut off

	fmt.Println("account alice: balance 120, offline limit 50 per partition")
	fmt.Println()

	// Online withdrawal while fully connected.
	g.At(200*time.Millisecond, func() {
		msg, _, err := branches[ids[0]].replica.Withdraw("alice", 40)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: withdrawal declined: %v\n", ids[0], err)
			return
		}
		if msg != nil {
			g.Send(g.Now(), ids[0], msg, evs.Safe)
		}
	})

	// The remote branch is cut off.
	g.Partition(350*time.Millisecond, ids[:2], []evs.ProcessID{remote})

	// A customer withdraws at the cut-off ATM: EVS lets the branch
	// authorise offline; the VS layer is blocked there.
	g.At(700*time.Millisecond, func() {
		syncAll()
		_, d, _ := branches[remote].replica.Withdraw("alice", 30)
		fmt.Printf("%8.0fms  %s (partitioned): offline withdrawal of 30 approved=%v\n",
			float64(g.Now().Microseconds())/1000, remote, d != nil && d.Approved)
		fmt.Printf("            VS layer at %s blocked (non-primary): %v\n",
			remote, len(g.VSEvents(remote)) == 0 || vsBlocked(g, remote))
	})

	// The network heals; the pending transaction posts.
	g.Merge(900 * time.Millisecond)
	g.At(1300*time.Millisecond, syncAll)
	g.Run(2200 * time.Millisecond)
	syncAll()

	fmt.Println()
	for _, id := range ids {
		fmt.Printf("%s: balance(alice) = %d, pending = %d, overdrafts seen = %d\n",
			id, branches[id].replica.Balance("alice"),
			branches[id].replica.PendingCount(), branches[id].replica.Overdrafts())
	}
	want := 120 - 40 - 30
	for _, id := range ids {
		if branches[id].replica.Balance("alice") != want {
			return fmt.Errorf("%s: balance %d, want %d", id, branches[id].replica.Balance("alice"), want)
		}
	}
	fmt.Printf("\nall replicas converged on balance %d after posting.\n", want)
	if vs := g.Check(true); len(vs) != 0 {
		return fmt.Errorf("specification violations: %v", vs)
	}
	if vs := g.CheckVS(true); len(vs) != 0 {
		return fmt.Errorf("virtual synchrony violations: %v", vs)
	}
	fmt.Println("EVS and VS model checks: clean.")
	return nil
}

// vsBlocked reports whether the process's VS layer saw no deliveries after
// the partition (it was blocked in the non-primary component).
func vsBlocked(g *evs.Group, id evs.ProcessID) bool {
	for _, e := range g.VSEvents(id) {
		if e.Deliver != nil && e.Time > 350*time.Millisecond && e.Time < 900*time.Millisecond {
			return false
		}
	}
	return true
}
