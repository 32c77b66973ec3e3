package evs

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/primary"
	"repro/internal/spec"
	"repro/internal/stable"
	"repro/internal/vsfilter"
	"repro/internal/wire"
)

// Envelope tags multiplex the EVS payload between the application and the
// primary-component layer.
const (
	tagApp     byte = 0
	tagPrimary byte = 1
)

// Options configure a Group.
type Options struct {
	// Processes lists the process identifiers. If empty, NumProcesses
	// processes named p01..pNN are created.
	Processes []ProcessID
	// NumProcesses is used when Processes is empty (default 3).
	NumProcesses int
	// Seed drives the deterministic simulation.
	Seed int64
	// DropRate and DupRate configure network loss and duplication.
	DropRate, DupRate float64
	// Codec routes every simulated packet through the wire binary codec
	// (encode at send, decode per receiver) exactly as the real
	// transports do; with the fault rates zero the execution is
	// bit-identical to a run without it. CorruptRate and TruncateRate
	// then flip a bit in, or cut short, individual receivers' encoded
	// frames; rejected frames are counted and dropped, never panicking.
	Codec                     bool
	CorruptRate, TruncateRate float64
	// MinDelay and MaxDelay bound packet latency; zero values select a
	// LAN-like default profile.
	MinDelay, MaxDelay time.Duration
	// EnablePrimary runs the primary component algorithm on every
	// process (required for the virtual synchrony layer).
	EnablePrimary bool
	// EnableVS runs the virtual synchrony filter on every process
	// (implies EnablePrimary).
	EnableVS bool
	// Node overrides protocol timing.
	Node *node.Config
	// DiscardHistory turns the group into a pure measurement rig for
	// saturating benchmarks: neither the formal-model event history nor
	// per-process delivery slices are retained, so memory stays O(1) per
	// message. Deliveries returns nil; use DeliveryCount. History, Check,
	// and the latency experiments need the retained data and must not set
	// this.
	DiscardHistory bool
}

// Group is a deterministic in-memory EVS cluster with optional primary
// component and virtual synchrony layers.
type Group struct {
	cluster *harness.Cluster
	ids     []ProcessID
	opts    Options

	prim    map[ProcessID]*primary.Protocol
	filters map[ProcessID]*vsfilter.Filter

	deliveries    map[ProcessID][]Delivery
	deliveryCount map[ProcessID]uint64
	confs         map[ProcessID][]ConfigEvent
	primaryEvs    map[ProcessID][]PrimaryEvent
	vsEvents      map[ProcessID][]VSEvent
	vsTrace       []vsfilter.TraceEvent
	crashed       map[ProcessID]bool
	stats         GroupStats

	// observers receive application-level events as they happen, in
	// registration order (AddObserver).
	observers []Observer

	// wrapArena amortises the per-submission envelope allocation: tagged
	// payload buffers are carved from chunks instead of allocated one
	// append each. Carved buffers are never reused, so handing them to
	// the node (which retains them until sequenced) is safe.
	wrapArena []byte
}

// NewGroup creates a group; processes boot at virtual time zero.
func NewGroup(opts Options) *Group {
	if opts.EnableVS {
		opts.EnablePrimary = true
	}
	ids := opts.Processes
	if len(ids) == 0 {
		n := opts.NumProcesses
		if n <= 0 {
			n = 3
		}
		for i := 0; i < n; i++ {
			ids = append(ids, ProcessID(fmt.Sprintf("p%02d", i+1)))
		}
	}
	netCfg := netsim.Default(opts.Seed)
	if opts.MinDelay > 0 || opts.MaxDelay > 0 {
		netCfg.MinDelay, netCfg.MaxDelay = opts.MinDelay, opts.MaxDelay
	}
	netCfg.DropRate, netCfg.DupRate = opts.DropRate, opts.DupRate
	netCfg.Codec = opts.Codec
	netCfg.CorruptRate, netCfg.TruncateRate = opts.CorruptRate, opts.TruncateRate

	g := &Group{
		ids:           ids,
		opts:          opts,
		prim:          make(map[ProcessID]*primary.Protocol),
		filters:       make(map[ProcessID]*vsfilter.Filter),
		deliveries:    make(map[ProcessID][]Delivery),
		deliveryCount: make(map[ProcessID]uint64),
		confs:         make(map[ProcessID][]ConfigEvent),
		primaryEvs:    make(map[ProcessID][]PrimaryEvent),
		vsEvents:      make(map[ProcessID][]VSEvent),
		crashed:       make(map[ProcessID]bool),
	}
	g.cluster = harness.New(harness.Options{
		IDs:            ids,
		Seed:           opts.Seed,
		Net:            &netCfg,
		Node:           opts.Node,
		DropHistory:    opts.DiscardHistory,
		DropDeliveries: opts.DiscardHistory,
	})
	universe := model.NewProcessSet(ids...)
	for _, id := range ids {
		if opts.EnablePrimary {
			g.prim[id] = primary.New(id, universe, model.Configuration{}, model.Configuration{})
		}
		if opts.EnableVS {
			g.filters[id] = vsfilter.New(id)
		}
	}
	g.cluster.OnDeliver = g.onDeliver
	g.cluster.OnConfig = g.onConfig
	return g
}

// OnWire registers an observer of every transmitted protocol message (for
// traffic accounting in the benchmark harness). Batched data packets are
// unwrapped: the observer sees one "data" call per carried message, so
// accounting is independent of how the transport packs packets.
func (g *Group) OnWire(fn func(from ProcessID, kind string)) {
	g.cluster.OnWire = func(from model.ProcessID, msg wire.Message) {
		if b, ok := msg.(wire.DataBatch); ok {
			for range b.Msgs {
				fn(from, "data")
			}
			return
		}
		fn(from, msg.Kind())
	}
}

// AddObserver registers an additional application-event observer; every
// registered observer sees every delivery and configuration change, in
// registration order. Register before the simulation runs.
func (g *Group) AddObserver(o Observer) {
	if o != nil {
		g.observers = append(g.observers, o)
	}
}

// started reports whether the simulation has begun executing events.
func (g *Group) started() bool {
	return g.cluster.Sched.Fired() > 0 || g.cluster.Sched.Now() > 0
}

// IDs returns the process identifiers.
func (g *Group) IDs() []ProcessID {
	out := make([]ProcessID, len(g.ids))
	copy(out, g.ids)
	return out
}

// Now returns the current virtual time.
func (g *Group) Now() time.Duration { return g.cluster.Sched.Now() }

// Run advances the simulation to the given absolute virtual time.
func (g *Group) Run(until time.Duration) { g.cluster.Run(until) }

// At schedules fn at an absolute virtual time.
func (g *Group) At(t time.Duration, fn func()) { g.cluster.At(t, fn) }

// Send schedules a message submission at process id at virtual time t.
func (g *Group) Send(t time.Duration, id ProcessID, payload []byte, svc Service) {
	g.At(t, func() { _ = g.submit(id, payload, svc) })
}

// Submit submits an application message at the current virtual time. It is
// the Cluster-interface counterpart of Send, for code that drives the
// simulation itself (typically from an At callback or between Run calls).
func (g *Group) Submit(id ProcessID, payload []byte, svc Service) error {
	return g.submit(id, payload, svc)
}

// submit wraps the payload in the application envelope and submits it.
// Errors are additionally counted in GroupStats: scenario-expected
// rejections (process down, backlog shed) must stay visible even when the
// scheduled-send path has no caller to return them to.
func (g *Group) submit(id ProcessID, payload []byte, svc Service) error {
	if g.crashed[id] {
		g.stats.Rejected++
		return ErrDown
	}
	wrapped := g.wrapApp(payload)
	if err := g.cluster.Node(id).Submit(wrapped, svc); err != nil {
		if errors.Is(err, node.ErrBacklog) {
			g.stats.Backlogged++
		} else {
			g.stats.Rejected++
		}
		return err
	}
	g.stats.Submitted++
	if f := g.filters[id]; f != nil && !f.Blocked() {
		// The VS layer observes the send for the model checker. The
		// message identifier is the one just assigned.
		rec := g.cluster.Store(id).Load()
		g.vsTrace = append(g.vsTrace, vsfilter.TraceEvent{
			Type: vsfilter.EventSend,
			Proc: id,
			Msg:  MessageID{Sender: id, SenderSeq: rec.SenderSeq},
		})
	}
	return nil
}

// wrapApp prefixes the payload with the application envelope tag, carving
// the buffer from the group's chunked arena (one allocation per chunk, not
// per submission).
//
//evs:noalloc
func (g *Group) wrapApp(payload []byte) []byte {
	n := len(payload) + 1
	if len(g.wrapArena) < n {
		grow := 16 << 10
		if grow < n {
			grow = n
		}
		g.wrapArena = make([]byte, grow)
	}
	w := g.wrapArena[:n:n]
	g.wrapArena = g.wrapArena[n:]
	w[0] = tagApp
	copy(w[1:], payload)
	return w
}

// Partition schedules a network partition at virtual time t; processes not
// listed in any group are isolated.
func (g *Group) Partition(t time.Duration, groups ...[]ProcessID) {
	g.cluster.Partition(t, groups...)
}

// Merge schedules a full network merge at virtual time t.
func (g *Group) Merge(t time.Duration) { g.cluster.Merge(t) }

// Crash schedules a process failure at virtual time t; volatile state is
// lost, stable storage survives.
func (g *Group) Crash(t time.Duration, id ProcessID) {
	g.At(t, func() {
		if g.crashed[id] {
			return
		}
		g.crashed[id] = true
		g.cluster.Node(id).Crash()
		g.cluster.Net.SetDown(id, true)
		if g.opts.EnableVS {
			g.vsTrace = append(g.vsTrace, vsfilter.TraceEvent{
				Type: vsfilter.EventStop, Proc: id,
			})
		}
	})
}

// Recover schedules a process recovery at virtual time t: the process
// restarts with its stable storage intact and the same identifier.
func (g *Group) Recover(t time.Duration, id ProcessID) {
	g.At(t, func() {
		if !g.crashed[id] {
			return
		}
		g.crashed[id] = false
		g.cluster.Net.SetDown(id, false)
		// The primary layer reloads its persisted knowledge; the VS
		// filter restarts blocked (a recovered process rejoins the
		// primary component through Rule 4).
		rec := g.cluster.Store(id).Load()
		if g.opts.EnablePrimary {
			g.prim[id] = primary.New(id, model.NewProcessSet(g.ids...), rec.LastPrimary, rec.PrimaryAttempt)
		}
		if g.opts.EnableVS {
			g.filters[id] = vsfilter.New(id)
		}
		g.cluster.Node(id).Recover()
	})
}

// onConfig feeds configuration changes to the upper layers.
func (g *Group) onConfig(id model.ProcessID, cc node.ConfigChange) {
	ce := ConfigEvent{Config: cc.Config, Time: g.Now()}
	g.confs[id] = append(g.confs[id], ce)
	for _, o := range g.observers {
		o.OnConfigChange(id, ce)
	}
	if p := g.prim[id]; p != nil {
		g.applyPrimaryActions(id, p.OnConfig(cc.Config))
	}
	if f := g.filters[id]; f != nil {
		g.applyVSOutputs(id, f.OnConfig(cc.Config))
	}
}

// onDeliver demultiplexes EVS deliveries between the application and the
// primary layer, feeding the application stream to the VS filter.
func (g *Group) onDeliver(id model.ProcessID, d node.Delivery) {
	if len(d.Payload) == 0 {
		return
	}
	tag, body := d.Payload[0], d.Payload[1:]
	switch tag {
	case tagPrimary:
		p := g.prim[id]
		if p == nil {
			return
		}
		m, err := primary.Decode(body)
		if err != nil {
			return
		}
		g.applyPrimaryActions(id, p.OnMessage(m))
	case tagApp:
		g.deliveryCount[id]++
		if g.opts.DiscardHistory && len(g.observers) == 0 && g.filters[id] == nil {
			return
		}
		del := Delivery{
			Msg:     d.Msg,
			Payload: body,
			Service: d.Service,
			Config:  d.Config,
			Time:    g.Now(),
		}
		if !g.opts.DiscardHistory {
			g.deliveries[id] = append(g.deliveries[id], del)
		}
		for _, o := range g.observers {
			o.OnDelivery(id, del)
		}
		if f := g.filters[id]; f != nil {
			g.applyVSOutputs(id, f.OnDeliver(d.Msg, body, d.Service))
		}
	}
}

// applyPrimaryActions executes the primary protocol's requested actions.
func (g *Group) applyPrimaryActions(id model.ProcessID, acts []primary.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case primary.Broadcast:
			payload, err := primary.Encode(act.Msg)
			if err != nil {
				g.stats.PrimaryEncodeErrors++
				continue
			}
			wrapped := append([]byte{tagPrimary}, payload...)
			// Primary-layer messages ride the safe service. A refusal
			// (the process is down or mid-recovery) is expected under
			// faults; it is counted rather than silently dropped so
			// tests and operators can see lost protocol traffic.
			if err := g.cluster.Node(id).Submit(wrapped, model.Safe); err != nil {
				g.stats.PrimaryRejected++
			}
		case primary.PersistAttempt:
			rec := g.cluster.Store(id).Load()
			rec.PrimaryAttempt = act.Cfg
			g.cluster.Store(id).Save(rec)
		case primary.PersistPrimary:
			rec := g.cluster.Store(id).Load()
			rec.LastPrimary = act.Cfg
			rec.PrimaryAttempt = model.Configuration{}
			g.cluster.Store(id).Save(rec)
		case primary.Decided:
			g.primaryEvs[id] = append(g.primaryEvs[id], PrimaryEvent{
				Config:  act.Cfg,
				Primary: act.Primary,
				Prev:    act.Prev,
				Time:    g.Now(),
			})
			g.markPrimaryTrace(id, act)
			if f := g.filters[id]; f != nil {
				inView := !f.CurrentView().ID.IsZero()
				g.applyVSOutputs(id, f.OnPrimaryDecision(act.Cfg, act.Primary, act.Prev))
				if !act.Primary && inView {
					// Leaving the primary component is failure in
					// Birman's primary-partition model: record the
					// stop so the completeness conditions treat the
					// process's missing deliveries as extendable.
					g.vsTrace = append(g.vsTrace, vsfilter.TraceEvent{
						Type: vsfilter.EventStop, Proc: id,
					})
				}
			}
		}
	}
}

// markPrimaryTrace annotates the process's deliver_conf trace event for the
// decided configuration with the primary verdict, so the specification
// checker can verify Section 2.2.
func (g *Group) markPrimaryTrace(id model.ProcessID, act primary.Decided) {
	if !act.Primary {
		return
	}
	events := g.cluster.History.Events()
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if e.Type == model.EventDeliverConf && e.Proc == id && e.Config == act.Cfg.ID {
			events[i].Primary = true
			return
		}
	}
}

// applyVSOutputs records the VS filter's outputs.
func (g *Group) applyVSOutputs(id model.ProcessID, outs []vsfilter.Output) {
	for _, o := range outs {
		switch out := o.(type) {
		case vsfilter.ViewChange:
			v := out.View
			g.vsEvents[id] = append(g.vsEvents[id], VSEvent{ViewChange: &v, Time: g.Now()})
			g.vsTrace = append(g.vsTrace, vsfilter.TraceEvent{
				Type: vsfilter.EventView, Proc: id, View: v.ID, Members: v.Members,
			})
		case vsfilter.Deliver:
			d := out
			g.vsEvents[id] = append(g.vsEvents[id], VSEvent{Deliver: &d, Time: g.Now()})
			g.vsTrace = append(g.vsTrace, vsfilter.TraceEvent{
				Type: vsfilter.EventDeliver, Proc: id, View: d.View, Msg: d.Msg,
			})
		}
	}
}

// Deliveries returns the EVS-layer deliveries at a process. Nil when the
// group was built with DiscardHistory; use DeliveryCount there.
func (g *Group) Deliveries(id ProcessID) []Delivery { return g.deliveries[id] }

// DeliveryCount returns the number of application deliveries at a process,
// maintained even when DiscardHistory drops the delivery slices.
func (g *Group) DeliveryCount(id ProcessID) uint64 { return g.deliveryCount[id] }

// PeakPending returns the high-water mark of the scheduler's event queue
// over the whole run — the simulator-side memory footprint a benchmark row
// reports alongside its throughput.
func (g *Group) PeakPending() int { return g.cluster.Sched.PeakPending() }

// ConfigChanges returns the configuration changes delivered at a process.
func (g *Group) ConfigChanges(id ProcessID) []ConfigEvent { return g.confs[id] }

// Metrics freezes every process's observability scope, plus the "net"
// medium scope, into one cluster snapshot.
func (g *Group) Metrics() ClusterMetrics { return g.cluster.MetricsSnapshot() }

// procMetrics returns one process's live metric scope, so attached
// layers (Topics) can count into the same catalog the transport uses.
func (g *Group) procMetrics(id ProcessID) *obs.Metrics { return g.cluster.Metrics(id) }

// ObsEvents returns the merged protocol trace: every scope's retained
// events in one time-ordered stream (budget trajectory, gather causes,
// recovery steps, configuration installs).
func (g *Group) ObsEvents() []ObsEvent { return g.cluster.ObsEvents() }

// Close implements Cluster. The simulator holds no external resources;
// Close is a no-op so simulation code can be runtime-generic.
func (g *Group) Close() error { return nil }

// PrimaryEvents returns the primary verdicts observed at a process.
func (g *Group) PrimaryEvents(id ProcessID) []PrimaryEvent { return g.primaryEvs[id] }

// VSEvents returns the virtual synchrony events at a process.
func (g *Group) VSEvents(id ProcessID) []VSEvent { return g.vsEvents[id] }

// History returns the formal-model trace of the whole execution.
func (g *Group) History() []Event { return g.cluster.History.Events() }

// Check verifies the execution against the EVS specifications (1-7) and,
// when the primary layer is enabled, the primary component properties.
func (g *Group) Check(settled bool) []Violation {
	checker := spec.NewChecker(g.cluster.History.Events(), spec.Options{Settled: settled})
	out := checker.CheckAll()
	if g.opts.EnablePrimary {
		out = append(out, checker.CheckPrimary()...)
	}
	return out
}

// CheckVS verifies the filtered execution against the virtual synchrony
// model (completeness C1-C3, legality L1-L5).
func (g *Group) CheckVS(settled bool) []VSViolation {
	return vsfilter.Check(g.vsTrace, settled)
}

// Operational returns the regular configurations currently installed by
// live, operational processes.
func (g *Group) Operational() map[ConfigID]ProcessSet {
	return g.cluster.OperationalConfigIDs()
}

// Mode returns the protocol mode of a process ("operational",
// "gathering", "recovering", "down").
func (g *Group) Mode(id ProcessID) string { return g.cluster.Node(id).Mode().String() }

// StableRecord returns a copy of a process's stable storage (for
// diagnostics and tests).
func (g *Group) StableRecord(id ProcessID) stable.Record {
	return g.cluster.Store(id).Load()
}

// NetStats returns network activity counters.
func (g *Group) NetStats() netsim.Stats { return g.cluster.Net.Stats() }

// PendingDepth returns the send backlog at a process: messages submitted
// but not yet sequenced. Submissions beyond the node's MaxPending bound
// are shed (counted in GroupStats.Backlogged).
func (g *Group) PendingDepth(id ProcessID) int {
	return g.cluster.Node(id).PendingDepth()
}

// GroupStats counts group-level activity that would otherwise vanish
// silently: application submissions and primary-layer protocol traffic
// refused or unencodable at the transport boundary.
type GroupStats struct {
	// Submitted and Rejected count application submissions accepted and
	// refused (process down or reconfiguring).
	Submitted, Rejected uint64
	// Backlogged counts application submissions shed because the
	// process's send backlog was full (backpressure).
	Backlogged uint64
	// PrimaryRejected counts primary-layer broadcasts the node refused.
	PrimaryRejected uint64
	// PrimaryEncodeErrors counts primary-layer messages that failed to
	// serialise.
	PrimaryEncodeErrors uint64
}

// Stats returns a copy of the group's activity counters.
func (g *Group) Stats() GroupStats { return g.stats }
