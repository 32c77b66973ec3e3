package main

import (
	"errors"
	"time"

	"repro/internal/model"
	"repro/internal/node"
)

// tick is the open-loop generator's pacing interval. Sleeping per
// message at sub-millisecond intervals oversleeps so often that a large
// share of sends runs late; a 1 ms tick submits every message that has
// come due since the last one.
const tick = time.Millisecond

// lateLimit is how late a send may run before it counts as late.
const lateLimit = time.Millisecond

// generator is the single load-generator goroutine's state: it builds a
// fresh self-checking payload per message, hands it to a live sender
// round-robin, and accounts for what was accepted, refused and late.
type generator struct {
	c    *cluster
	seed uint64

	// accepted[s] is sender s's last accepted benchmark sequence.
	accepted []uint64
	// reuse makes every send share one payload buffer: the defect the
	// gate must catch (node.Submit retains the slice). Tests only.
	reuse    bool
	reuseBuf []byte

	k    uint64 // messages generated so far (round-robin and 3:1 cursor)
	next time.Time
	rate float64

	// holds are the closed loop's messages waiting for backlog room.
	holds []held

	attempted uint64 // sends offered (a backlog retry is the same send)
	refused   uint64 // sends the ring refused for good
	late      uint64
	maxLate   time.Duration
}

func newGenerator(c *cluster, seed uint64) *generator {
	n := len(c.members)
	return &generator{c: c, seed: seed, accepted: make([]uint64, n), holds: make([]held, n)}
}

// service returns the k-th message's service: three agreed, then one safe.
func service(k uint64) model.Service {
	if k%4 == 3 {
		return model.Safe
	}
	return model.Agreed
}

// sender picks the live sender for message k, round-robin.
func (g *generator) sender(k uint64) int {
	n := 0
	for _, ok := range g.c.live {
		if ok {
			n++
		}
	}
	j := int(k % uint64(n))
	for s, ok := range g.c.live {
		if ok {
			if j == 0 {
				return s
			}
			j--
		}
	}
	return 0
}

func (g *generator) payload(s int, seq uint64, due time.Time, svc model.Service) []byte {
	if !g.reuse {
		return makePayload(g.seed, s, seq, due.UnixNano(), svc)
	}
	if g.reuseBuf == nil {
		g.reuseBuf = make([]byte, payloadLen)
	}
	fillPayload(g.reuseBuf, g.seed, s, seq, due.UnixNano(), svc)
	return g.reuseBuf
}

// startOpen begins an open-loop schedule of rate messages per second
// whose first message is due at from.
func (g *generator) startOpen(rate float64, from time.Time) {
	g.rate = rate
	g.next = from
}

// paceUntil runs the open loop until the wall clock reaches until or
// stop (checked every tick) reports true. Every message due in a tick is
// submitted in that tick and timed from when it was due.
func (g *generator) paceUntil(until time.Time, stop func() bool) {
	interval := time.Duration(float64(time.Second) / g.rate)
	for {
		now := time.Now()
		for !g.next.After(now) && g.next.Before(until) {
			g.sendDue(g.next)
			g.next = g.next.Add(interval)
		}
		if !now.Before(until) || (stop != nil && stop()) {
			return
		}
		time.Sleep(tick)
	}
}

// sendDue submits one open-loop message due at due.
func (g *generator) sendDue(due time.Time) {
	k := g.k
	g.k++
	s := g.sender(k)
	svc := service(k)
	seq := g.accepted[s] + 1
	g.attempted++
	err := g.c.members[s].Submit(g.payload(s, seq, due, svc), svc)
	if late := time.Since(due); late > lateLimit {
		g.late++
		if late > g.maxLate {
			g.maxLate = late
		}
	}
	if err != nil {
		g.refused++
		g.c.gate.refused(s, svc, due.UnixNano())
		return
	}
	g.accepted[s] = seq
}

// held is a closed-loop message waiting for backlog room.
type held struct {
	due time.Time
	svc model.Service
	ok  bool
}

// saturate runs the closed loop until the wall clock reaches until: each
// live sender is fed until its backlog refuses (node.ErrBacklog, the
// ring's flow control), the refused message is held and retried with
// its original due time, and the generator sleeps only when every
// sender is full.
func (g *generator) saturate(until time.Time) error {
	for {
		now := time.Now()
		if !now.Before(until) {
			return nil
		}
		progressed := false
		for s, ok := range g.c.live {
			if !ok {
				continue
			}
			for {
				h := &g.holds[s]
				if !h.ok {
					k := g.k
					g.k++
					*h = held{due: time.Now(), svc: service(k), ok: true}
					g.attempted++
				}
				seq := g.accepted[s] + 1
				err := g.c.members[s].Submit(g.payload(s, seq, h.due, h.svc), h.svc)
				if errors.Is(err, node.ErrBacklog) {
					break
				}
				if err != nil {
					return err
				}
				g.accepted[s] = seq
				h.ok = false
				progressed = true
			}
		}
		if !progressed {
			time.Sleep(200 * time.Microsecond)
		}
	}
}
