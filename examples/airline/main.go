// Airline: the paper's first motivating application. A partitioned airline
// reservation system keeps selling tickets in every component; a
// proportional seat-allocation heuristic prevents overbooking, and ledgers
// reconcile automatically when the network remerges. The run contrasts the
// allocation heuristic with a naive optimistic policy that overbooks.
//
// Run with: go run ./examples/airline
package main

import (
	"fmt"
	"os"
	"time"

	evs "repro"
	"repro/internal/apps/airline"
	"repro/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// office couples an airline replica to its process in the group.
type office struct {
	id      evs.ProcessID
	replica *airline.Replica
	fed     int
}

// sync replays the process's stream into the replica and broadcasts its
// reconciliation state messages.
func (o *office) sync(g *evs.Group) {
	confs := g.ConfigChanges(o.id)
	dels := g.Deliveries(o.id)
	type ev struct {
		conf    *evs.Configuration
		sender  evs.ProcessID
		payload []byte
	}
	var evts []ev
	ci, di := 0, 0
	for _, e := range g.History() {
		if e.Proc != o.id {
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
				evts = append(evts, ev{sender: dels[di].Msg.Sender, payload: dels[di].Payload})
				di++
			}
		}
	}
	for _, e := range evts[o.fed:] {
		if e.conf != nil {
			state, err := o.replica.OnConfig(*e.conf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: reconciliation skipped: %v\n", o.id, err)
				continue
			}
			if state != nil {
				g.Send(g.Now(), o.id, state, evs.Safe)
			}
		} else {
			o.replica.OnDeliver(e.sender, e.payload)
		}
	}
	o.fed = len(evts)
}

func sellingSeason(policy airline.Policy, seats int) (sold, over int) {
	g := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: 7})
	ids := g.IDs()
	full := evs.NewProcessSet(ids...)
	offices := make([]*office, len(ids))
	for i, id := range ids {
		offices[i] = &office{id: id, replica: airline.New(id, full, policy, map[string]int{"UA100": seats})}
	}
	syncAll := func() {
		for _, o := range offices {
			o.sync(g)
		}
	}

	sell := func(at time.Duration, id evs.ProcessID) {
		b, err := airline.Encode(airline.Msg{Kind: airline.KindSell, Flight: "UA100"})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sale dropped: %v\n", err)
			return
		}
		g.Send(at, id, b, evs.Safe)
	}

	// Connected selling.
	for i := 0; i < 6; i++ {
		sell(time.Duration(150+i*10)*time.Millisecond, ids[i%4])
	}
	// WAN link between the two ticket offices goes down; both keep
	// selling.
	g.Partition(300*time.Millisecond, ids[:2], ids[2:])
	for i := 0; i < 14; i++ {
		sell(time.Duration(500+i*10)*time.Millisecond, ids[0])
		sell(time.Duration(505+i*10)*time.Millisecond, ids[2])
	}
	// The link heals; drive the replicas so the post-merge
	// configuration change triggers the reconciliation exchange.
	g.Merge(800 * time.Millisecond)
	g.At(1200*time.Millisecond, syncAll)
	g.Run(2 * time.Second)
	syncAll()

	if vs := g.Check(true); len(vs) != 0 {
		fmt.Println("  (specification violations!)", vs)
	}
	return offices[0].replica.Sold("UA100"), offices[0].replica.Overbooked("UA100")
}

func run() error {
	const seats = 16
	fmt.Printf("flight UA100: %d seats, 4 ticket offices, link failure mid-season\n\n", seats)

	soldAlloc, overAlloc := sellingSeason(airline.PolicyAllocation, seats)
	fmt.Printf("allocation heuristic:  sold %2d seats, overbooked %d\n", soldAlloc, overAlloc)

	soldOpt, overOpt := sellingSeason(airline.PolicyOptimistic, seats)
	fmt.Printf("optimistic policy:     sold %2d seats, overbooked %d\n", soldOpt, overOpt)

	fmt.Println("\nthe allocation heuristic sells through the partition without")
	fmt.Println("overbooking; optimistic selling overbooks and must re-accommodate")
	fmt.Println("passengers after the merge — exactly the trade-off the paper's")
	fmt.Println("introduction describes.")
	if overAlloc != 0 {
		return fmt.Errorf("allocation heuristic overbooked")
	}
	return nil
}
