package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The socket workloads assemble the daemon's layers in this package —
// transport.NewUDP/NewTCP, node.New with daemon.DefaultNetConfig, an
// owned stable.Store, and a host with daemon.New's mutex and timer
// discipline — so that a traced pass can wrap every call into a layer in
// a span without touching the program. Spans stay in memory and are
// written out when the run ends.
//
// The untraced pass uses the same host with no tracer rather than
// daemon.Daemon itself: daemon.New starts the transport's receive
// goroutine before it creates its node, and a datagram from a peer that
// is already running can arrive in that window and dereference the nil
// node, killing the process (about one ring formation in several
// hundred on loopback). The host here creates the node first.

// spanKind names a layer boundary.
type spanKind uint8

const (
	spanOnMessage spanKind = iota
	spanOnTimer
	spanSubmit
	spanBroadcast
	spanDeliver  // the benchmark's delivery hook, inside a node span
	spanLockWait // waiting for the host mutex before a node entry point
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanOnMessage: "node.OnMessage",
	spanOnTimer:   "node.OnTimer",
	spanSubmit:    "node.Submit",
	spanBroadcast: "transport.Broadcast",
	spanDeliver:   "bench.deliver",
	spanLockWait:  "daemon.lock_wait",
}

// span is one timed call. Times are ns since the tracer's epoch; parent
// indexes the same host's span list (-1: a root).
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// maxSpansPerHost bounds the spans a host keeps for the span file; the
// layer totals are accumulated for every call regardless.
const maxSpansPerHost = 1 << 14

// frameSampleEvery and maxFrames choose the broadcast messages replayed
// through the wire codec after the run.
const (
	frameSampleEvery = 64
	maxFrames        = 2048
)

// tracer is shared by one traced cluster's hosts.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex // guards hosts and frames
	hosts  []*host
	frames []wire.Message
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// layerAcc accumulates one host's layer totals.
type layerAcc struct {
	nodeSelfNs  int64 // node entry points minus their child spans
	sendNs      int64 // transport Broadcast: encode and syscalls
	sendCalls   int64
	deliverNs   int64 // the benchmark's own delivery hook
	lockWaitNs  int64
	timerFires  int64
	storeWrites int64
}

func (a layerAcc) sub(b layerAcc) layerAcc {
	return layerAcc{
		nodeSelfNs: a.nodeSelfNs - b.nodeSelfNs, sendNs: a.sendNs - b.sendNs,
		sendCalls: a.sendCalls - b.sendCalls, deliverNs: a.deliverNs - b.deliverNs,
		lockWaitNs: a.lockWaitNs - b.lockWaitNs, timerFires: a.timerFires - b.timerFires,
		storeWrites: a.storeWrites - b.storeWrites,
	}
}

func (a *layerAcc) add(b layerAcc) {
	a.nodeSelfNs += b.nodeSelfNs
	a.sendNs += b.sendNs
	a.sendCalls += b.sendCalls
	a.deliverNs += b.deliverNs
	a.lockWaitNs += b.lockWaitNs
	a.timerFires += b.timerFires
	a.storeWrites += b.storeWrites
}

// recoveryMark is one recovery step seen in a host's obs event stream.
type recoveryMark struct {
	kind obs.Kind
	at   time.Duration
}

// host is one ring process assembled from the daemon's layers; with a
// tracer it records a span around every call into them.
type host struct {
	t     *tracer // nil: untraced
	id    model.ProcessID
	met   *obs.Metrics
	store *stable.Store
	tr    transport.Transport
	h     hooks

	mu     sync.Mutex // the daemon's lock: node entry points, timers, accounting
	n      *node.Node
	timers map[node.TimerKind]*time.Timer
	dead   bool

	cur       int32 // open node span, -1 when none, -2 when over the cap
	spanStart int64
	childNs   int64
	spans     []span
	acc       layerAcc
	sendSeen  uint64

	marksMu sync.Mutex
	marks   []recoveryMark
}

var _ node.Host = (*host)(nil)

func newHost(t *tracer, id model.ProcessID, peers map[model.ProcessID]string, network string, h hooks) (*host, error) {
	th := &host{
		t: t, id: id, h: h,
		store:  &stable.Store{},
		timers: make(map[node.TimerKind]*time.Timer),
		cur:    -1,
	}
	epoch := time.Now()
	if t != nil {
		epoch = t.epoch
	}
	th.met = obs.New(string(id), func() time.Duration { return time.Since(epoch) })
	if t != nil {
		th.met.AddSink(obs.SinkFunc(func(e obs.Event) {
			switch e.Kind {
			case obs.KRecoveryStart, obs.KRecoveryPlan, obs.KRecoveryFinish, obs.KRecoveryAbort:
				th.marksMu.Lock()
				th.marks = append(th.marks, recoveryMark{e.Kind, e.At})
				th.marksMu.Unlock()
			}
		}))
	}
	// The node exists before the transport can receive: a peer already
	// running may send as soon as the socket is bound.
	th.n = node.New(id, daemon.DefaultNetConfig(), tracingTransport{th}, th, th.store)
	th.n.SetMetrics(th.met)
	handler := func(from model.ProcessID, msg wire.Message) {
		th.lock()
		if !th.dead {
			th.enter(spanOnMessage)
			th.n.OnMessage(from, msg)
			th.exit()
		}
		th.mu.Unlock()
	}
	var err error
	switch network {
	case "udp":
		th.tr, err = transport.NewUDP(transport.UDPConfig{Self: id, Peers: peers, Handler: handler, Met: th.met})
	case "tcp":
		th.tr, err = transport.NewTCP(transport.TCPConfig{Self: id, Peers: peers, Handler: handler, Met: th.met})
	default:
		err = fmt.Errorf("unknown network %q", network)
	}
	if err != nil {
		return nil, err
	}
	if t != nil {
		t.mu.Lock()
		t.hosts = append(t.hosts, th)
		t.mu.Unlock()
	}
	th.mu.Lock()
	th.n.Start()
	th.mu.Unlock()
	return th, nil
}

// lock takes the host mutex, timing the wait as a root span when traced.
func (h *host) lock() {
	if h.t == nil {
		h.mu.Lock()
		return
	}
	start := h.t.now()
	h.mu.Lock()
	end := h.t.now()
	h.acc.lockWaitNs += end - start
	h.addSpan(spanLockWait, -1, start, end)
}

func (h *host) addSpan(k spanKind, parent int32, start, end int64) int32 {
	if len(h.spans) >= maxSpansPerHost {
		return -1
	}
	h.spans = append(h.spans, span{kind: k, parent: parent, start: start, end: end})
	return int32(len(h.spans) - 1)
}

// enter opens a node entry-point span; exit closes it and charges its
// self time (duration minus child spans) to the node layer.
func (h *host) enter(k spanKind) {
	if h.t == nil {
		return
	}
	h.childNs = 0
	h.spanStart = h.t.now()
	h.cur = h.addSpan(k, -1, h.spanStart, 0)
	if h.cur < 0 {
		h.cur = -2 // over the cap: keep accounting, drop the span
	}
}

func (h *host) exit() {
	if h.t == nil {
		return
	}
	end := h.t.now()
	h.acc.nodeSelfNs += end - h.spanStart - h.childNs
	if h.cur >= 0 {
		h.spans[h.cur].end = end
	}
	h.cur = -1
}

// child records a span nested in the open node span and returns its
// duration.
func (h *host) child(k spanKind, start int64) int64 {
	end := h.t.now()
	d := end - start
	if h.cur != -1 {
		h.childNs += d
	}
	parent := h.cur
	if parent < 0 {
		parent = -1
	}
	h.addSpan(k, parent, start, end)
	return d
}

// tracingTransport hands the node's broadcasts to the host's transport,
// wrapped in spans when traced. The node calls it under the host mutex,
// so accounting needs no further locking.
type tracingTransport struct{ h *host }

func (tt tracingTransport) Broadcast(msg wire.Message) {
	h := tt.h
	if h.t == nil {
		h.tr.Broadcast(msg)
		return
	}
	start := h.t.now()
	h.tr.Broadcast(msg)
	h.acc.sendNs += h.child(spanBroadcast, start)
	h.acc.sendCalls++
	h.sampleFrame(msg)
}

// sampleFrame keeps every frameSampleEvery-th sent message for the wire
// codec replay. Sent messages are immutable, so keeping them is safe.
func (h *host) sampleFrame(msg wire.Message) {
	h.sendSeen++
	if h.sendSeen%frameSampleEvery != 0 {
		return
	}
	h.t.mu.Lock()
	if len(h.t.frames) < maxFrames {
		h.t.frames = append(h.t.frames, msg)
	}
	h.t.mu.Unlock()
}

// SetTimer implements node.Host with wall-clock timers, as the daemon
// does. Called with h.mu held.
func (h *host) SetTimer(kind node.TimerKind, dur time.Duration) {
	if t, ok := h.timers[kind]; ok {
		t.Stop()
	}
	h.timers[kind] = time.AfterFunc(dur, func() {
		h.lock()
		defer h.mu.Unlock()
		if !h.dead {
			h.acc.timerFires++ // read only when traced
			h.enter(spanOnTimer)
			h.n.OnTimer(kind)
			h.exit()
		}
	})
}

// CancelTimer implements node.Host.
func (h *host) CancelTimer(kind node.TimerKind) {
	if t, ok := h.timers[kind]; ok {
		t.Stop()
		delete(h.timers, kind)
	}
}

// Deliver implements node.Host.
func (h *host) Deliver(d node.Delivery) {
	if h.t == nil {
		h.h.onDeliver(d)
		return
	}
	start := h.t.now()
	h.h.onDeliver(d)
	h.acc.deliverNs += h.child(spanDeliver, start)
}

// DeliverConfig implements node.Host.
func (h *host) DeliverConfig(c node.ConfigChange) { h.h.onConfig(c) }

// Trace implements node.Host.
func (h *host) Trace(e model.Event) {
	if h.h.traceSink != nil {
		h.h.traceSink(time.Now().UnixNano(), e)
	}
}

// Submit originates an application message, as Daemon.Submit does.
func (h *host) Submit(payload []byte, svc model.Service) error {
	h.lock()
	defer h.mu.Unlock()
	if h.dead {
		return transport.ErrClosed
	}
	h.enter(spanSubmit)
	err := h.n.Submit(payload, svc)
	h.exit()
	return err
}

// Close stops the host as Daemon.Close does: protocol silenced, timers
// stopped, transport closed (its goroutines joined). Idempotent.
func (h *host) Close() error {
	h.mu.Lock()
	if h.dead {
		h.mu.Unlock()
		return nil
	}
	h.dead = true
	for k, t := range h.timers {
		t.Stop()
		delete(h.timers, k)
	}
	h.mu.Unlock()
	return h.tr.Close()
}

// snapshot returns the host's layer totals so far.
func (h *host) snapshot() layerAcc {
	h.mu.Lock()
	defer h.mu.Unlock()
	a := h.acc
	a.storeWrites = int64(h.store.Writes())
	return a
}

// recoveries returns the completed recoveries since since: total (Step 2
// to Step 6) and exchange (Step 2 to the Step 4 plan) durations.
func (h *host) recoveries(since time.Duration) (total, exchange []float64) {
	h.marksMu.Lock()
	defer h.marksMu.Unlock()
	var start, plan time.Duration = -1, -1
	for _, m := range h.marks {
		if m.at < since {
			continue
		}
		switch m.kind {
		case obs.KRecoveryStart:
			start, plan = m.at, -1
		case obs.KRecoveryPlan:
			if start >= 0 {
				plan = m.at
			}
		case obs.KRecoveryAbort:
			start, plan = -1, -1
		case obs.KRecoveryFinish:
			if start >= 0 {
				total = append(total, float64(m.at-start)/1e6)
				if plan >= 0 {
					exchange = append(exchange, float64(plan-start)/1e6)
				}
			}
			start, plan = -1, -1
		}
	}
	return total, exchange
}

// writeSpans writes every kept span as one tab-separated line: host,
// span index, name, parent index, start and end (ns since the epoch).
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	hosts := append([]*host(nil), t.hosts...)
	t.mu.Unlock()
	if len(hosts) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, h := range hosts {
		h.mu.Lock()
		for i, s := range h.spans {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\n", h.id, i, spanNames[s.kind], s.parent, s.start, s.end)
		}
		h.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayFrames times the wire codec over the sampled frames: encode with
// wire.AppendMessage, decode with a Decoder, each repeated reps times.
// It returns ns per frame for each.
func (t *tracer) replayFrames(reps int) (encNs, decNs float64, err error) {
	t.mu.Lock()
	frames := append([]wire.Message(nil), t.frames...)
	t.mu.Unlock()
	if len(frames) == 0 {
		return 0, 0, nil
	}
	encoded := make([][]byte, len(frames))
	for i, m := range frames {
		if encoded[i], err = wire.AppendMessage(nil, m); err != nil {
			return 0, 0, fmt.Errorf("encode sampled frame: %w", err)
		}
	}
	buf := make([]byte, 0, 64<<10)
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range frames {
			if buf, err = wire.AppendMessage(buf[:0], m); err != nil {
				return 0, 0, err
			}
		}
	}
	encNs = float64(time.Since(start).Nanoseconds()) / float64(reps*len(frames))
	dec := wire.NewDecoder()
	start = time.Now()
	for r := 0; r < reps; r++ {
		for _, b := range encoded {
			if _, err = dec.Decode(b); err != nil {
				return 0, 0, fmt.Errorf("decode sampled frame: %w", err)
			}
		}
	}
	decNs = float64(time.Since(start).Nanoseconds()) / float64(reps*len(frames))
	return encNs, decNs, nil
}
