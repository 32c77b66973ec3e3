package evs

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/wire"
)

// LiveGroup runs the same protocol stack as Group on the wall clock:
// one daemon per process (the unit cmd/evsd deploys one per OS process),
// all in this process, with real goroutines and timers. The medium is
// chosen at construction:
//
//   - "mem": an in-process channel hub that hands the immutable messages
//     to every receiver without encoding them — the stack under real
//     concurrency (the race detector runs over it in the tests);
//   - "udp" or "tcp": real sockets on loopback, where every broadcast is
//     encoded by the wire codec, framed, and read back off a socket.
//
// Partition, Merge, Crash, Recover and Kill work the same on every
// medium. The simulator remains the right tool for reproducible
// experiments and adversarial schedules; executions here still record
// the formal-model trace and can be verified with Check.
type LiveGroup struct {
	ids     []ProcessID
	daemons map[ProcessID]*daemon.Daemon
	// start anchors the group's clock: delivery and configuration times
	// are wall-clock durations since creation, the live counterpart of
	// the simulator's virtual time.
	start time.Time
	// net is the medium's scope, named as in the simulator: the mem hub
	// counts its traffic there, and the partition filter its cuts.
	net *obs.Metrics
	// cuts maps each process to its partition component; nil while the
	// group is whole.
	cuts atomic.Pointer[map[ProcessID]int]

	mu         sync.Mutex
	deliveries map[ProcessID][]Delivery
	confs      map[ProcessID][]ConfigEvent
	trace      spec.History
	observers  []Observer
	killed     map[ProcessID]bool
	metricsSrv *http.Server
	closed     bool
	wg         sync.WaitGroup
}

// NewLiveGroup starts n processes named p01..pNN over network: "mem",
// "udp" or "tcp". cfg overrides protocol timing; nil picks the profile
// that suits the medium, node.DefaultConfig for mem and the deployment
// profile daemon.DefaultNetConfig for sockets. Call Close when done.
func NewLiveGroup(n int, network string, cfg *node.Config) (*LiveGroup, error) {
	if n <= 0 {
		n = 3
	}
	g := &LiveGroup{
		daemons:    make(map[ProcessID]*daemon.Daemon, n),
		start:      time.Now(),
		deliveries: make(map[ProcessID][]Delivery),
		confs:      make(map[ProcessID][]ConfigEvent),
		killed:     make(map[ProcessID]bool),
	}
	g.net = obs.New("net", func() time.Duration { return time.Since(g.start) })
	for i := 0; i < n; i++ {
		g.ids = append(g.ids, ProcessID(fmt.Sprintf("p%02d", i+1)))
	}
	var (
		hub   *transport.MemHub
		addrs map[ProcessID]string
	)
	if network == "mem" {
		hub = transport.NewMemHub(g.ids, g.net)
		if cfg == nil {
			c := node.DefaultConfig()
			cfg = &c
		}
	} else {
		var err error
		if addrs, err = transport.ReserveLoopback(g.ids, network); err != nil {
			return nil, err
		}
	}
	for _, id := range g.ids {
		d, err := daemon.New(daemon.Config{
			Self: id,
			Medium: func(h transport.Handler, met *obs.Metrics) (transport.Transport, error) {
				h = g.cutFilter(id, h)
				if hub != nil {
					return hub.Attach(id, h, met)
				}
				return transport.Dial(network, id, addrs, h, met)
			},
			Node:      cfg,
			OnDeliver: func(del node.Delivery) { g.onDeliver(id, del) },
			OnConfig:  func(c node.ConfigChange) { g.onConfig(id, c) },
			TraceSink: g.onTrace,
		})
		if err != nil {
			g.Close()
			return nil, err
		}
		g.daemons[id] = d
	}
	return g, nil
}

// cutFilter wraps a process's receive handler with the partition map:
// a message from another component is dropped on arrival, on any medium.
func (g *LiveGroup) cutFilter(self ProcessID, h transport.Handler) transport.Handler {
	return func(from ProcessID, msg wire.Message) {
		if c := g.cuts.Load(); c != nil && (*c)[from] != (*c)[self] {
			g.net.Inc(obs.CNetCut)
			return
		}
		h(from, msg)
	}
}

func (g *LiveGroup) onDeliver(id ProcessID, d node.Delivery) {
	payload := d.Payload
	if len(payload) > 0 && payload[0] == tagApp {
		payload = payload[1:]
	}
	del := Delivery{
		Msg:     d.Msg,
		Payload: payload,
		Service: d.Service,
		Config:  d.Config,
		Time:    time.Since(g.start),
	}
	g.mu.Lock()
	g.deliveries[id] = append(g.deliveries[id], del)
	obsvs := g.observers
	g.mu.Unlock()
	// Observers run outside the group lock (they may read group state)
	// but on the process's event path, so per-process event order holds.
	for _, o := range obsvs {
		o.OnDelivery(id, del)
	}
}

func (g *LiveGroup) onConfig(id ProcessID, c node.ConfigChange) {
	ce := ConfigEvent{Config: c.Config, Time: time.Since(g.start)}
	g.mu.Lock()
	g.confs[id] = append(g.confs[id], ce)
	obsvs := g.observers
	g.mu.Unlock()
	for _, o := range obsvs {
		o.OnConfigChange(id, ce)
	}
}

// onTrace records an event in append order. A node traces a send before
// it broadcasts the message, so this order respects causality across
// processes and needs no clock.
func (g *LiveGroup) onTrace(e Event) {
	g.mu.Lock()
	g.trace.Append(e)
	g.mu.Unlock()
}

// IDs returns the process identifiers.
func (g *LiveGroup) IDs() []ProcessID {
	out := make([]ProcessID, len(g.ids))
	copy(out, g.ids)
	return out
}

// Submit originates an application message at a process.
func (g *LiveGroup) Submit(id ProcessID, payload []byte, svc Service) error {
	d, ok := g.daemons[id]
	if !ok {
		return fmt.Errorf("unknown process %s", id)
	}
	return d.Submit(append([]byte{tagApp}, payload...), svc)
}

// AddObserver registers an additional application-event observer; every
// registered observer sees every delivery and configuration change, in
// registration order. Callbacks run on process goroutines: per-process
// event order is preserved, but callbacks from different processes are
// concurrent and the observer must synchronise its own state.
func (g *LiveGroup) AddObserver(o Observer) {
	if o == nil {
		return
	}
	g.mu.Lock()
	g.observers = append(g.observers, o)
	g.mu.Unlock()
}

// Partition splits the group into the given components; unmentioned
// processes are isolated.
func (g *LiveGroup) Partition(groups ...[]ProcessID) {
	comp := make(map[ProcessID]int, len(g.ids))
	for i, grp := range groups {
		for _, id := range grp {
			comp[id] = i + 1
		}
	}
	next := len(groups)
	for _, id := range g.ids {
		if _, ok := comp[id]; !ok {
			next++
			comp[id] = next
		}
	}
	g.cuts.Store(&comp)
}

// Merge reunites all processes.
func (g *LiveGroup) Merge() { g.cuts.Store(nil) }

// Crash fails a process; its stable storage survives for Recover.
func (g *LiveGroup) Crash(id ProcessID) {
	if d, ok := g.daemons[id]; ok {
		d.Crash()
	}
}

// Recover restarts a crashed process under the same identifier.
func (g *LiveGroup) Recover(id ProcessID) {
	if d, ok := g.daemons[id]; ok {
		d.Recover()
	}
}

// Kill abruptly stops one process: its transport closes and it goes
// silent, with no protocol goodbye and no Fail event — the in-process
// equivalent of SIGKILL. The survivors detect the loss and reform.
func (g *LiveGroup) Kill(id ProcessID) error {
	d, ok := g.daemons[id]
	if !ok {
		return fmt.Errorf("unknown process %s", id)
	}
	g.mu.Lock()
	g.killed[id] = true
	g.mu.Unlock()
	return d.Close()
}

// Deliveries returns a snapshot of the messages delivered at a process.
func (g *LiveGroup) Deliveries(id ProcessID) []Delivery {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Delivery(nil), g.deliveries[id]...)
}

// ConfigChanges returns a snapshot of the configuration changes
// delivered at a process, in order.
func (g *LiveGroup) ConfigChanges(id ProcessID) []ConfigEvent {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]ConfigEvent(nil), g.confs[id]...)
}

// History returns a snapshot of the formal-model trace of the execution.
func (g *LiveGroup) History() []Event {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Event(nil), g.trace.Events()...)
}

// Check verifies the recorded execution against the EVS specifications.
// Settledness is the caller's claim that traffic has stopped and the
// group was given time to drain.
func (g *LiveGroup) Check(settled bool) []Violation {
	return spec.NewChecker(g.History(), spec.Options{Settled: settled}).CheckAll()
}

// Metrics freezes every process's observability scope, plus the "net"
// medium scope, into one cluster snapshot. Safe to call while the group
// runs.
func (g *LiveGroup) Metrics() ClusterMetrics { return obs.Cluster(g.scopes()...) }

// ObsEvents returns the merged protocol trace: every scope's retained
// events in one time-ordered stream.
func (g *LiveGroup) ObsEvents() []ObsEvent { return obs.MergeEvents(g.scopes()...) }

// scopes lists every observability scope: one per process plus the
// medium.
func (g *LiveGroup) scopes() []*obs.Metrics {
	out := make([]*obs.Metrics, 0, len(g.ids)+1)
	for _, id := range g.ids {
		out = append(out, g.daemons[id].Metrics())
	}
	return append(out, g.net)
}

// MetricsHandler returns an HTTP handler exposing the group's metrics:
// Prometheus text by default, JSON with format=json (or a path ending in
// ".json"). Snapshots are taken per request.
func (g *LiveGroup) MetricsHandler() http.Handler { return obs.MetricsHandler(g.Metrics) }

// ServeMetrics starts an HTTP server exposing MetricsHandler on addr
// (":0" picks a free port) and returns the bound address. The server stops
// when the group is closed. At most one metrics server per group.
func (g *LiveGroup) ServeMetrics(addr string) (string, error) {
	// Bind before taking the group lock: the listen syscall can stall
	// (e.g. slow DNS for a hostname addr), and g.mu serializes the
	// protocol hot path.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("group is closed")
	}
	if g.metricsSrv != nil {
		running := g.metricsSrv.Addr
		g.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("metrics server already running on %s", running)
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: g.MetricsHandler()}
	g.metricsSrv = srv
	g.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.wg.Done()
		_ = srv.Serve(ln)
	}()
	return srv.Addr, nil
}

// Status is a point-in-time view of one process, re-exported from the
// daemon package.
type Status = daemon.Status

// ProcStatus snapshots one process's protocol state.
func (g *LiveGroup) ProcStatus(id ProcessID) Status { return g.daemons[id].Status() }

// WaitOperational blocks until every process neither crashed nor killed
// is operational in the same configuration, or the timeout elapses. It
// reports success.
func (g *LiveGroup) WaitOperational(timeout time.Duration) bool {
	return poll(timeout, g.operationalTogether)
}

func (g *LiveGroup) operationalTogether() bool {
	ref := ""
	for _, id := range g.ids {
		g.mu.Lock()
		killed := g.killed[id]
		g.mu.Unlock()
		if killed {
			continue
		}
		st := g.daemons[id].Status()
		if st.Mode == "down" {
			continue
		}
		if st.Mode != "operational" || (ref != "" && st.Config != ref) {
			return false
		}
		ref = st.Config
	}
	return ref != ""
}

// WaitDeliveries blocks until process id has delivered at least n
// application messages or the timeout elapses; it reports success.
func (g *LiveGroup) WaitDeliveries(id ProcessID, n int, timeout time.Duration) bool {
	return poll(timeout, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.deliveries[id]) >= n
	})
}

// poll checks cond every 2ms until it holds or the timeout elapses.
func poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// Close stops every process and the metrics server (if one was started).
// It is idempotent.
func (g *LiveGroup) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	srv := g.metricsSrv
	g.mu.Unlock()

	if srv != nil {
		_ = srv.Close()
	}
	var first error
	for _, id := range g.ids {
		if d, ok := g.daemons[id]; ok {
			if err := d.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	g.wg.Wait()
	return first
}
