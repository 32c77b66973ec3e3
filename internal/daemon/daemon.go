// Package daemon runs one EVS ring process on the wall clock: the
// deployable unit behind cmd/evsd, and every process of the root
// package's LiveGroup. A Daemon wires the protocol state machine
// (internal/node) to a medium from internal/transport (UDP, TCP or the
// in-process hub), drives its timers from the wall clock, exposes
// the process's metrics over HTTP, and persists the formal-model event
// trace to disk as JSONL — so a multi-process run can be certified
// post-hoc by merging every process's trace and running the
// specification checker over the interleaving (Certify).
//
// The package is importable so deployments can be assembled in-process
// (a 4-daemon cluster over loopback sockets or the in-process hub)
// exactly as cmd/evsd assembles one per OS process.
package daemon

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config assembles one daemon.
type Config struct {
	// Self is this process.
	Self model.ProcessID
	// Medium opens the process's transport around the daemon's receive
	// handler, counting traffic on the daemon's scope: transport.Dial
	// for UDP or TCP, or a transport.MemHub's Attach for the in-process
	// medium. An embedder may wrap the handler (a partition filter, say)
	// before handing it to the transport.
	Medium func(h transport.Handler, met *obs.Metrics) (transport.Transport, error)
	// Node overrides protocol timing; nil uses DefaultNetConfig.
	Node *node.Config
	// TracePath, when non-empty, persists the formal-model event trace
	// as JSONL for post-hoc certification.
	TracePath string

	// OnDeliver, OnConfig and TraceSink are in-process hooks for
	// embedding the daemon (the root package's LiveGroup, or a test).
	// They run on the protocol path under the daemon's lock: don't
	// block, don't call back into the daemon. TraceSink receives each
	// formal-model event, in addition to (and independent of) TracePath.
	OnDeliver func(node.Delivery)
	OnConfig  func(node.ConfigChange)
	TraceSink func(model.Event)
}

// DefaultNetConfig returns protocol timing suited to real sockets on a
// possibly loaded machine: an order of magnitude slower than the
// simulator profile, so scheduling hiccups don't masquerade as token
// loss and trigger spurious membership changes.
func DefaultNetConfig() node.Config {
	cfg := node.DefaultConfig()
	cfg.TokenLoss = 400 * time.Millisecond
	cfg.TokenRetrans = 60 * time.Millisecond
	cfg.JoinRetry = 100 * time.Millisecond
	cfg.CommitTimeout = 250 * time.Millisecond
	cfg.RecoveryRetry = 80 * time.Millisecond
	cfg.RecoveryTimeout = 1200 * time.Millisecond
	return cfg
}

// Daemon is one ring process over a transport.
type Daemon struct {
	id    model.ProcessID
	start time.Time
	met   *obs.Metrics
	tr    transport.Transport
	trace *TraceWriter

	onDeliver func(node.Delivery)
	onConfig  func(node.ConfigChange)
	traceSink func(model.Event)

	mu     sync.Mutex // guards node entry points, timers, state below
	n      *node.Node // nil until New has opened the medium
	timers map[node.TimerKind]*time.Timer
	dead   bool

	deliveries uint64
	confs      []model.Configuration

	srvMu sync.Mutex
	srv   *http.Server
	wg    sync.WaitGroup
}

var _ node.Host = (*Daemon)(nil)

// New assembles and starts a daemon: transport bound, node started, ring
// formation under way.
func New(cfg Config) (*Daemon, error) {
	if cfg.Medium == nil {
		return nil, fmt.Errorf("daemon: no medium for %s", cfg.Self)
	}
	d := &Daemon{
		id:        cfg.Self,
		start:     time.Now(), //lint:allow determinism daemon uptime anchor; feeds metrics labels only, never protocol state
		timers:    make(map[node.TimerKind]*time.Timer),
		onDeliver: cfg.OnDeliver,
		onConfig:  cfg.OnConfig,
		traceSink: cfg.TraceSink,
	}
	//lint:allow determinism metrics clock measures daemon uptime for observability; protocol timers go through node.Host
	d.met = obs.New(string(cfg.Self), func() time.Duration { return time.Since(d.start) })
	if cfg.TracePath != "" {
		tw, err := NewTraceWriter(cfg.TracePath)
		if err != nil {
			return nil, err
		}
		d.trace = tw
	}
	// The medium may deliver before the node exists (a running peer's
	// datagram reaches a freshly bound socket): such a message is
	// dropped, like one lost on the wire.
	handler := func(from model.ProcessID, msg wire.Message) {
		d.mu.Lock()
		if d.n != nil && !d.dead {
			d.n.OnMessage(from, msg)
		}
		d.mu.Unlock()
	}
	tr, err := cfg.Medium(handler, d.met)
	if err != nil {
		if d.trace != nil {
			d.trace.Close()
		}
		return nil, err
	}
	d.tr = tr
	nodeCfg := DefaultNetConfig()
	if cfg.Node != nil {
		nodeCfg = *cfg.Node
	}
	d.mu.Lock()
	d.n = node.New(cfg.Self, nodeCfg, tr, d, &stable.Store{})
	d.n.SetMetrics(d.met)
	d.n.Start()
	d.mu.Unlock()
	return d, nil
}

// ID returns the process identifier.
func (d *Daemon) ID() model.ProcessID { return d.id }

// Addr returns the transport's bound address.
func (d *Daemon) Addr() string {
	type addresser interface{ Addr() string }
	if a, ok := d.tr.(addresser); ok {
		return a.Addr()
	}
	return ""
}

// Metrics returns the daemon's observability scope.
func (d *Daemon) Metrics() *obs.Metrics { return d.met }

// SetTimer implements node.Host with wall-clock timers. Called with d.mu
// held (every node entry point runs under it).
func (d *Daemon) SetTimer(kind node.TimerKind, dur time.Duration) {
	if t, ok := d.timers[kind]; ok {
		t.Stop()
	}
	//lint:allow determinism the daemon IS the real-time node.Host implementation; the simulator provides the deterministic one
	d.timers[kind] = time.AfterFunc(dur, func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		if !d.dead {
			d.n.OnTimer(kind)
		}
	})
}

// CancelTimer implements node.Host.
func (d *Daemon) CancelTimer(kind node.TimerKind) {
	if t, ok := d.timers[kind]; ok {
		t.Stop()
		delete(d.timers, kind)
	}
}

// Deliver implements node.Host: count the delivery (visible in /status
// and metrics) and fan out to the embedding application's hook, if any.
func (d *Daemon) Deliver(del node.Delivery) {
	d.deliveries++
	if d.onDeliver != nil {
		d.onDeliver(del)
	}
}

// DeliverConfig implements node.Host.
func (d *Daemon) DeliverConfig(c node.ConfigChange) {
	d.confs = append(d.confs, c.Config)
	if d.onConfig != nil {
		d.onConfig(c)
	}
}

// Trace implements node.Host: events go to the JSONL trace file stamped
// with wall-clock time, for post-hoc merge and certification, and to the
// in-process sink when one is registered.
func (d *Daemon) Trace(e model.Event) {
	if d.trace != nil {
		_ = d.trace.Append(time.Now().UnixNano(), e) //lint:allow determinism trace timestamps exist for post-hoc cross-daemon merge, not protocol decisions
	}
	if d.traceSink != nil {
		d.traceSink(e)
	}
}

// Submit originates an application message on the ring.
func (d *Daemon) Submit(payload []byte, svc model.Service) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return transport.ErrClosed
	}
	return d.n.Submit(payload, svc)
}

// Crash fails the process as the fault model has it: the node stops,
// keeps its stable storage, and ignores messages, timers and submits
// until Recover. The transport stays open.
func (d *Daemon) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dead {
		d.n.Crash()
	}
}

// Recover restarts a crashed process from its stable storage under the
// same identifier.
func (d *Daemon) Recover() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dead {
		d.n.Recover()
	}
}

// Status is a point-in-time view of the daemon, also served as JSON on
// the HTTP endpoint.
type Status struct {
	ID         string   `json:"id"`
	Mode       string   `json:"mode"`
	Config     string   `json:"config"`
	Members    []string `json:"members"`
	Deliveries uint64   `json:"deliveries"`
	Configs    int      `json:"configs"`
}

// Status snapshots the daemon's protocol state.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	cfg := d.n.CurrentConfig()
	st := Status{
		ID:         string(d.id),
		Mode:       d.n.Mode().String(),
		Config:     cfg.ID.String(),
		Deliveries: d.deliveries,
		Configs:    len(d.confs),
	}
	for _, m := range cfg.Members.Members() {
		st.Members = append(st.Members, string(m))
	}
	return st
}

// Operational reports whether the daemon has a regular configuration
// installed whose membership is exactly want (nil: any membership).
func (d *Daemon) Operational(want []model.ProcessID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n.Mode() != node.Operational {
		return false
	}
	if want == nil {
		return true
	}
	return d.n.CurrentConfig().Members.Equal(model.NewProcessSet(want...))
}

// WaitOperational blocks until Operational(want) holds or the timeout
// elapses; it reports success.
func (d *Daemon) WaitOperational(want []model.ProcessID, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout) //lint:allow determinism ops/test polling helper; wall time never reaches the node state machine
	for time.Now().Before(deadline) { //lint:allow determinism ops/test polling helper; wall time never reaches the node state machine
		if d.Operational(want) {
			return true
		}
		time.Sleep(5 * time.Millisecond) //lint:allow determinism ops/test polling helper; wall time never reaches the node state machine
	}
	return d.Operational(want)
}

// Deliveries returns how many application messages the daemon has
// delivered.
func (d *Daemon) Deliveries() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.deliveries
}

// Configs snapshots the configuration changes delivered so far.
func (d *Daemon) Configs() []model.Configuration {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]model.Configuration, len(d.confs))
	copy(out, d.confs)
	return out
}

// Handler returns the daemon's HTTP handler: Prometheus metrics on
// /metrics (JSON with ?format=json or /metrics.json), status on /status.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	metrics := obs.MetricsHandler(func() obs.ClusterSnapshot { return obs.Cluster(d.met) })
	mux.Handle("/metrics", metrics)
	mux.Handle("/metrics.json", metrics)
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(d.Status())
	})
	return mux
}

// Serve starts the HTTP endpoint on addr (":0" picks a port) and returns
// the bound address. The server stops when the daemon closes.
func (d *Daemon) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	d.srvMu.Lock()
	if d.srv != nil {
		d.srvMu.Unlock()
		ln.Close()
		return "", fmt.Errorf("daemon: HTTP endpoint already running on %s", d.srv.Addr)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: d.Handler()}
	d.srv = srv
	d.wg.Add(1)
	d.srvMu.Unlock()
	go func() {
		defer d.wg.Done()
		_ = srv.Serve(ln)
	}()
	return srv.Addr, nil
}

// Close stops the daemon: protocol silenced, timers stopped, transport
// and HTTP endpoint closed, trace flushed. Idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.dead {
		d.mu.Unlock()
		return nil
	}
	d.dead = true
	for k, t := range d.timers {
		t.Stop()
		delete(d.timers, k)
	}
	d.mu.Unlock()

	d.srvMu.Lock()
	srv := d.srv
	d.srvMu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	err := d.tr.Close()
	d.wg.Wait()
	if d.trace != nil {
		if terr := d.trace.Close(); err == nil {
			err = terr
		}
	}
	return err
}
