package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// The correctness gate. Every benchmark message carries a self-checking
// payload; every member's delivery stream is folded into a running order
// hash and a per-sender sequence cursor. At the end of a run the gate
// fails the run — it does not merely count — unless:
//
//   - every message a live sender had accepted was delivered exactly once
//     at every live member (no gap, duplicate or reordering within a
//     sender's stream);
//   - every live member delivered the same messages in the same total
//     order (equal delivery counts and running hashes);
//   - every payload arrived intact (fill bytes and checksum verify).

// payloadLen is the size of a benchmark payload.
const payloadLen = 64

// Payload layout, eight little-endian words:
//
//	w0     per-sender benchmark sequence (1, 2, ...)
//	w1     due time (unix ns on sockets, virtual ns in the simulator)
//	w2     sender index | service<<16
//	w3-w6  fill derived from (seed, sender, seq)
//	w7     checksum of w0-w6
//
// Verification costs a few word operations, so checking every payload at
// every member stays cheap next to the protocol's own per-message cost.

// makePayload builds a fresh payload. The node retains submitted slices
// until they are sequenced, so each Submit must get its own buffer.
func makePayload(seed uint64, sender int, seq uint64, due int64, svc model.Service) []byte {
	b := make([]byte, payloadLen)
	fillPayload(b, seed, sender, seq, due, svc)
	return b
}

func fillPayload(b []byte, seed uint64, sender int, seq uint64, due int64, svc model.Service) {
	var w [8]uint64
	w[0], w[1], w[2] = seq, uint64(due), uint64(sender)|uint64(svc)<<16
	fillWords(&w, seed)
	w[7] = checksum(&w)
	for i, x := range w {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

func fillWords(w *[8]uint64, seed uint64) {
	x := splitmix(seed ^ (w[2]&0xffff)<<48 ^ w[0])
	for i := 3; i < 7; i++ {
		w[i] = x ^ uint64(i)*0x9e3779b97f4a7c15
	}
}

func checksum(w *[8]uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range w[:7] {
		h = (h ^ x) * 1099511628211
		h ^= h >> 29
	}
	return h
}

// parsedPayload is a verified payload's header.
type parsedPayload struct {
	sender int
	seq    uint64
	due    int64
	svc    model.Service
}

// parsePayload verifies a delivered payload against the seed and returns
// its header.
func parsePayload(b []byte, seed uint64) (parsedPayload, error) {
	if len(b) != payloadLen {
		return parsedPayload{}, fmt.Errorf("payload length %d, want %d", len(b), payloadLen)
	}
	var w, want [8]uint64
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if c := checksum(&w); w[7] != c {
		return parsedPayload{}, fmt.Errorf("payload checksum %x, want %x", w[7], c)
	}
	want = w
	fillWords(&want, seed)
	if want != w {
		return parsedPayload{}, fmt.Errorf("payload fill corrupt (sender %d seq %d)", w[2]&0xffff, w[0])
	}
	return parsedPayload{
		sender: int(w[2] & 0xffff),
		seq:    w[0],
		due:    int64(w[1]),
		svc:    model.Service(w[2] >> 16),
	}, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// maxErrors bounds the violations a member log keeps.
const maxErrors = 8

// memberLog is one member's view of its delivery stream. Deliveries
// arrive on the member's protocol path; the mutex orders them against
// the generator's progress polls and the final verification.
type memberLog struct {
	mu     sync.Mutex
	count  uint64 // every application delivery, benchmark payload or not
	hash   uint64 // running hash of delivered message identifiers
	last   []uint64
	gapped []bool // a sender's stream skipped a sequence number here
	errs   []string

	// Window accounting: deliveries per second of the measurement
	// window, and the sender's own-delivery latencies of messages due
	// in the window.
	lat *latencyLog
}

func (m *memberLog) fail(format string, args ...any) {
	if len(m.errs) < maxErrors {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// gate is the correctness gate of one cluster incarnation.
type gate struct {
	seed    uint64
	ids     []model.ProcessID // sender index to process
	members []*memberLog
	// win is the measurement window; nil counts nothing. It is swapped
	// atomically because deliveries arrive on the members' goroutines.
	win atomic.Pointer[window]
}

func newGate(seed uint64, ids []model.ProcessID) *gate {
	g := &gate{seed: seed, ids: ids}
	for range ids {
		g.members = append(g.members, &memberLog{
			hash:   14695981039346656037,
			last:   make([]uint64, len(ids)),
			gapped: make([]bool, len(ids)),
			lat:    &latencyLog{},
		})
	}
	return g
}

// orderFold folds one delivered message identifier into a running hash.
func orderFold(h uint64, id model.MessageID) uint64 {
	for i := 0; i < len(id.Sender); i++ {
		h ^= uint64(id.Sender[i])
		h *= 1099511628211
	}
	h ^= id.SenderSeq
	h *= 1099511628211
	return h
}

// deliver records one delivery at member m at time now (the clock of the
// run: wall ns on sockets, virtual ns in the simulator). body is the
// benchmark payload, or nil for a message the benchmark did not
// originate (the simulator's group-control traffic), which is folded
// into the order hash only.
func (g *gate) deliver(m int, id model.MessageID, body []byte, now int64) {
	ml := g.members[m]
	ml.mu.Lock()
	defer ml.mu.Unlock()
	ml.count++
	ml.hash = orderFold(ml.hash, id)
	win := g.win.Load()
	ml.lat.countDelivery(win, now)
	if body == nil {
		return
	}
	p, err := parsePayload(body, g.seed)
	if err != nil {
		ml.fail("member %d: message %v: %v", m, id, err)
		return
	}
	if p.sender >= len(g.ids) || g.ids[p.sender] != id.Sender {
		ml.fail("member %d: message %v carries a payload of sender %d", m, id, p.sender)
		return
	}
	switch want := ml.last[p.sender] + 1; {
	case p.seq < want:
		ml.fail("member %d: sender %d seq %d delivered again or out of order (cursor %d)", m, p.sender, p.seq, want-1)
		return
	case p.seq > want:
		ml.gapped[p.sender] = true
	}
	ml.last[p.sender] = p.seq
	if p.sender == m {
		ml.lat.record(win, p.svc, p.due, now)
	}
}

// delivered reports how many of sender s's messages member m has
// delivered (its sequence cursor).
func (g *gate) delivered(m, s int) uint64 {
	ml := g.members[m]
	ml.mu.Lock()
	defer ml.mu.Unlock()
	return ml.last[s]
}

// drained reports whether every live member has delivered every message
// it is obliged to (see verify for together).
func (g *gate) drained(live []bool, accepted []uint64, together bool) bool {
	for m, ok := range live {
		if !ok {
			continue
		}
		for s, sok := range live {
			if sok && (together || s == m) && g.delivered(m, s) < accepted[s] {
				return false
			}
		}
	}
	return true
}

// waitDrained polls until drained or the deadline; it reports success.
func (g *gate) waitDrained(live []bool, accepted []uint64, together bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !g.drained(live, accepted, together) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// verify applies the gate: accepted[s] is how many messages sender s
// accepted, live marks the members alive at the end. together reports
// that the live members passed through the same regular configurations
// while the load ran, so each of them must deliver every message the
// live senders accepted, in one total order. When a transient partition
// split them instead, EVS obliges agreement only within each shared
// configuration, which the spec checker certifies; the gate then holds
// each live member to its own messages (Specification 3). It returns
// every violation found (nil: the run is correct).
func (g *gate) verify(live []bool, accepted []uint64, together bool) []string {
	var errs []string
	ref := -1
	for m, ml := range g.members {
		ml.mu.Lock()
		errs = append(errs, ml.errs...)
		if live[m] {
			for s, sok := range live {
				obliged := sok && (together || s == m)
				switch {
				case obliged && ml.last[s] != accepted[s]:
					errs = append(errs, fmt.Sprintf("member %d delivered %d of sender %d's %d accepted messages", m, ml.last[s], s, accepted[s]))
				case obliged && ml.gapped[s]:
					errs = append(errs, fmt.Sprintf("member %d skipped messages of live sender %d", m, s))
				case ml.last[s] > accepted[s]:
					errs = append(errs, fmt.Sprintf("member %d delivered sender %d seq %d, beyond its %d accepted", m, s, ml.last[s], accepted[s]))
				}
			}
			if ref < 0 {
				ref = m
			}
		}
		ml.mu.Unlock()
	}
	if ref < 0 {
		return append(errs, "no live member")
	}
	r := g.members[ref]
	for m, ml := range g.members {
		if !together || !live[m] || m == ref {
			continue
		}
		ml.mu.Lock()
		if ml.count != r.count || ml.hash != r.hash {
			errs = append(errs, fmt.Sprintf("members %d and %d disagree on the total order (%d deliveries hash %x vs %d hash %x)",
				ref, m, r.count, r.hash, ml.count, ml.hash))
		}
		ml.mu.Unlock()
	}
	sort.Strings(errs)
	return errs
}

// refused records a send the ring refused: it misses every latency limit.
func (g *gate) refused(sender int, svc model.Service, due int64) {
	ml := g.members[sender]
	ml.mu.Lock()
	defer ml.mu.Unlock()
	ml.lat.record(g.win.Load(), svc, due, -1)
}

// logs returns every member's window accounting. Call once deliveries
// have stopped (after the members are closed).
func (g *gate) logs() []*latencyLog {
	out := make([]*latencyLog, len(g.members))
	for i, ml := range g.members {
		out[i] = ml.lat
	}
	return out
}
