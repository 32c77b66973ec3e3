package transport

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// MemHub is the in-process medium: every member of one cluster, inside
// one OS process, exchanging messages through per-member channel
// inboxes. It hands over the immutable wire.Message values themselves —
// no codec, no copy — which the node.Transport ownership contract
// allows. Fan-out never blocks: a full inbox drops the message, so the
// medium is lossy like the broadcast LAN the protocol was built for and
// the protocol's retransmission recovers. The hub's scope counts under
// the simulator's "net" vocabulary: broadcasts, deliveries (enqueues)
// and overflow drops.
type MemHub struct {
	met   *obs.Metrics
	peers []model.ProcessID // sorted, fixed at construction

	mu    sync.Mutex
	ports []*memPort // by peers index; nil until attached and after close
}

// memInbox bounds each member's queue of undelivered messages.
const memInbox = 4096

type memEnvelope struct {
	from model.ProcessID
	msg  wire.Message
}

// memPort is one member's attachment to a MemHub.
type memPort struct {
	hub     *MemHub
	self    model.ProcessID
	idx     int
	handler Handler
	met     *obs.Metrics
	in      chan memEnvelope
	closed  bool // guarded by hub.mu
	wg      sync.WaitGroup
}

// NewMemHub creates the medium for a fixed member set; met (may be nil)
// is the medium's scope.
func NewMemHub(peers []model.ProcessID, met *obs.Metrics) *MemHub {
	ids := append([]model.ProcessID(nil), peers...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &MemHub{met: met, peers: ids, ports: make([]*memPort, len(ids))}
}

// Attach joins self to the hub and returns its Transport. Messages for
// self reach handler on the member's own receive goroutine, never
// synchronously from a send. met (may be nil) counts the member's
// post-close drops, as the socket transports do.
func (h *MemHub) Attach(self model.ProcessID, handler Handler, met *obs.Metrics) (Transport, error) {
	idx := h.index(self)
	if idx < 0 {
		return nil, fmt.Errorf("transport: %q is not a member of the hub", self)
	}
	p := &memPort{hub: h, self: self, idx: idx, handler: handler, met: met,
		in: make(chan memEnvelope, memInbox)}
	h.mu.Lock()
	if h.ports[idx] != nil {
		h.mu.Unlock()
		return nil, fmt.Errorf("transport: %q is already attached", self)
	}
	h.ports[idx] = p
	h.mu.Unlock()
	p.wg.Add(1)
	go p.receive()
	return p, nil
}

// receive drains the inbox into the handler until Close.
func (p *memPort) receive() {
	defer p.wg.Done()
	for env := range p.in {
		p.handler(env.from, env.msg)
	}
}

// Broadcast implements Transport: one enqueue per attached member,
// self included.
func (p *memPort) Broadcast(msg wire.Message) {
	h := p.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if p.closed {
		p.met.Inc(obs.CWireDrops)
		return
	}
	h.met.Inc(obs.CNetBroadcasts)
	for _, q := range h.ports {
		h.enqueue(q, p.self, msg)
	}
}

// Unicast implements Transport.
func (p *memPort) Unicast(to model.ProcessID, msg wire.Message) {
	h := p.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if p.closed {
		p.met.Inc(obs.CWireDrops)
		return
	}
	if idx := h.index(to); idx >= 0 {
		h.enqueue(h.ports[idx], p.self, msg)
	}
}

// index returns a member's position in the sorted peer list, or -1.
func (h *MemHub) index(id model.ProcessID) int {
	i := sort.Search(len(h.peers), func(i int) bool { return h.peers[i] >= id })
	if i == len(h.peers) || h.peers[i] != id {
		return -1
	}
	return i
}

// enqueue hands a message to one member without blocking. Called with
// h.mu held; a detached member (nil) receives nothing.
func (h *MemHub) enqueue(q *memPort, from model.ProcessID, msg wire.Message) {
	if q == nil {
		return
	}
	select {
	case q.in <- memEnvelope{from: from, msg: msg}:
		h.met.Inc(obs.CNetDelivered)
	default:
		h.met.Inc(obs.CNetDropped)
	}
}

// Peers implements Transport: the hub's member set, sorted.
func (p *memPort) Peers() []model.ProcessID {
	return append([]model.ProcessID(nil), p.hub.peers...)
}

// Close implements Transport: the member detaches, its receive
// goroutine drains what was already queued and exits. Idempotent.
func (p *memPort) Close() error {
	h := p.hub
	h.mu.Lock()
	if p.closed {
		h.mu.Unlock()
		return nil
	}
	p.closed = true
	h.ports[p.idx] = nil
	close(p.in)
	h.mu.Unlock()
	p.wg.Wait()
	return nil
}
