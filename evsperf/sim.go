package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	evs "repro"
	"repro/internal/groups"
	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
)

// simWorkload is the simulator at procs processes with lightweight
// Topics clients and Zipf-skewed group traffic (a scaled-down G1). Times
// on its clock are virtual; its CPU figures are host CPU per ordered
// group message in virtual time, never deployment throughput.
type simWorkload struct {
	procs, groups, clients, batchOps int
	zipfS                            float64
	// rate is the aggregate offered load, group messages per virtual
	// second, submitted every millisecond of virtual time.
	rate float64
	// slice is the virtual time run between wall-clock readings.
	slice  time.Duration
	setups int
}

// groupsLayer is the group layer's windowed accounting (traced pass).
type groupsLayer struct {
	layerNs  int64  // time inside the Topics delivery observer
	routed   uint64 // host-level routing decisions: deliveries and drops
	filtered uint64 // drops at hosts without a subscriber
}

// simLayer is the simulator's windowed accounting.
type simLayer struct {
	packets     uint64
	peakPending int
}

// simRun is one simulated cluster with its group layer and gate.
type simRun struct {
	w     simWorkload
	g     *evs.Group
	top   *evs.Topics
	gate  *gate
	ids   []evs.ProcessID
	index map[evs.ProcessID]int

	names       []string
	hostClients [][]evs.ClientID
	sched       [][]sendSlot

	// installs records regular configurations installed after a crash,
	// per process, in virtual time.
	crashAt  time.Duration
	installs map[evs.ProcessID]time.Duration
	want     model.ProcessSet

	// traced bracket around the Topics observer
	traced  bool
	enterAt time.Time
	layerNs int64
}

type sendSlot struct {
	client evs.ClientID
	gid    evs.GroupID
}

// newSimRun builds the cluster and runs the client-join phase; the
// returned duration is its set-up time.
func newSimRun(w simWorkload, seed uint64, traced bool) (*simRun, time.Duration, error) {
	start := time.Now()
	r := &simRun{w: w, traced: traced, installs: map[evs.ProcessID]time.Duration{}, index: map[evs.ProcessID]int{}}
	r.g = evs.NewGroup(evs.Options{
		NumProcesses:   w.procs,
		Seed:           int64(seed),
		DiscardHistory: true,
	})
	r.ids = r.g.IDs()
	for i, id := range r.ids {
		r.index[id] = i
	}
	r.gate = newGate(seed, r.ids)
	if traced {
		r.g.AddObserver(evs.ObserverFuncs{Delivery: func(evs.ProcessID, evs.Delivery) { r.enterAt = time.Now() }})
	}
	top, err := evs.NewTopicsWith(r.g, evs.TopicsOptions{DiscardHistory: true})
	if err != nil {
		return nil, 0, err
	}
	r.top = top
	r.g.AddObserver(evs.ObserverFuncs{Delivery: r.onDelivery, ConfigChange: r.onConfig})

	rng := rand.New(rand.NewSource(int64(seed)))
	r.names = make([]string, w.groups)
	for i := range r.names {
		r.names[i] = fmt.Sprintf("g%05d", i)
	}
	r.hostClients = make([][]evs.ClientID, w.procs)
	ops := make([][]evs.ClientOp, w.procs)
	for c := 1; c <= w.clients; c++ {
		h := (c - 1) % w.procs
		gi := c - 1
		if gi >= w.groups {
			gi = rng.Intn(w.groups)
		}
		r.hostClients[h] = append(r.hostClients[h], evs.ClientID(c))
		ops[h] = append(ops[h], evs.ClientOp{Client: evs.ClientID(c), Group: r.names[gi]})
	}
	// Join phase: batches of client subscriptions, spaced so the send
	// backlog never sheds one.
	joinStart := 350 * time.Millisecond
	joinEnd := joinStart
	for h := range ops {
		at := joinStart
		for lo := 0; lo < len(ops[h]); lo += w.batchOps {
			hi := lo + w.batchOps
			if hi > len(ops[h]) {
				hi = len(ops[h])
			}
			top.ClientBatch(at, r.ids[h], ops[h][lo:hi])
			at += 2 * time.Millisecond
		}
		if at > joinEnd {
			joinEnd = at
		}
	}
	r.g.Run(joinEnd + 300*time.Millisecond)
	joined := 0
	for _, name := range r.names {
		joined += r.top.View(r.ids[0], name).Clients
	}
	if joined != w.clients {
		return nil, 0, fmt.Errorf("join phase incomplete: %d of %d clients joined", joined, w.clients)
	}
	zipf := rand.NewZipf(rng, w.zipfS, 1, uint64(w.groups-1))
	const scheduleLen = 4096
	r.sched = make([][]sendSlot, w.procs)
	for h := range r.sched {
		r.sched[h] = make([]sendSlot, scheduleLen)
		for k := range r.sched[h] {
			gi := int(zipf.Uint64())
			gid, ok := r.top.Resolve(r.ids[h], r.names[gi])
			if !ok {
				return nil, 0, fmt.Errorf("group %s not interned at %s", r.names[gi], r.ids[h])
			}
			r.sched[h][k] = sendSlot{client: r.hostClients[h][k%len(r.hostClients[h])], gid: gid}
		}
	}
	return r, time.Since(start), nil
}

// onDelivery feeds the gate every ring delivery at every process. Client
// data carries a benchmark payload as its tail; group control traffic
// is folded into the order hash only.
func (r *simRun) onDelivery(id evs.ProcessID, d evs.Delivery) {
	if r.traced {
		r.layerNs += int64(time.Since(r.enterAt))
	}
	var body []byte
	if len(d.Payload) > payloadLen && groups.Kind(d.Payload[0]) == groups.KindClientData {
		body = d.Payload[len(d.Payload)-payloadLen:]
	}
	r.gate.deliver(r.index[id], d.Msg, body, int64(r.g.Now()))
}

func (r *simRun) onConfig(id evs.ProcessID, c evs.ConfigEvent) {
	if r.crashAt > 0 && c.Config.ID.IsRegular() && c.Config.Members.Equal(r.want) {
		if _, ok := r.installs[id]; !ok {
			r.installs[id] = r.g.Now()
		}
	}
}

// offer submits one virtual millisecond's worth of load at every host:
// three agreed client messages (encoded here, submitted on the ring) for
// every safe one (through Topics' interned fast path).
func (r *simRun) offer(seed uint64, accepted []uint64, cursor []int, k *uint64, refused *uint64, attempted *uint64) error {
	per := int(r.w.rate/1000) / r.w.procs
	now := r.g.Now()
	for h, id := range r.ids {
		for j := 0; j < per; j++ {
			s := r.sched[h][cursor[h]%len(r.sched[h])]
			cursor[h]++
			svc := service(*k)
			*k++
			*attempted++
			seq := accepted[h] + 1
			payload := makePayload(seed, h, seq, int64(now), svc)
			var err error
			if svc == model.Safe {
				err = r.top.SubmitClientSend(id, s.client, s.gid, payload)
			} else {
				env := make([]byte, 0, 1+2*binary.MaxVarintLen32+payloadLen)
				env = append(env, byte(groups.KindClientData))
				env = binary.AppendUvarint(env, uint64(s.client))
				env = binary.AppendUvarint(env, uint64(s.gid))
				env = append(env, payload...)
				err = r.g.Submit(id, env, model.Agreed)
			}
			if errors.Is(err, node.ErrBacklog) {
				*refused++
				r.gate.refused(h, svc, int64(now))
				continue
			}
			if err != nil {
				return err
			}
			accepted[h] = seq
		}
	}
	return nil
}

// runSim runs one pass of the simulator workload: setups, then load in
// virtual slices until seconds of wall time have been measured, a drain,
// the gate, and a crash timed to the survivors' reconfiguration.
func runSim(w simWorkload, seed uint64, seconds float64, traced bool) (*phase, error) {
	p := &phase{members: w.procs}
	var r *simRun
	setups := w.setups
	if traced {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		var setup time.Duration
		var err error
		if r, setup, err = newSimRun(w, seed, traced); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, setup.Seconds())
	}

	accepted := make([]uint64, w.procs)
	cursor := make([]int, w.procs)
	var k uint64
	loadStart := r.g.Now()
	win := &window{start: int64(loadStart), end: int64(loadStart + time.Hour), width: int64(time.Second)}
	r.gate.win.Store(win)
	var offerErr error
	var tickFn func()
	tickFn = func() {
		if offerErr != nil {
			return
		}
		offerErr = r.offer(seed, accepted, cursor, &k, &p.refused, &p.attempted)
		r.g.At(r.g.Now()+time.Millisecond, tickFn)
	}
	r.g.At(loadStart, tickFn)
	// Warm-up: one virtual slice, unmeasured.
	r.g.Run(loadStart + w.slice)

	m0 := r.g.Metrics().Total
	gl0 := r.groupCounts()
	pk0 := r.g.NetStats().Delivered
	ord0 := r.orderedAll()
	r.layerNs = 0
	cpu0 := cpuTime()
	wall0 := time.Now()
	deadline := wall0.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		t0, o0 := time.Now(), r.orderedAll()
		r.g.Run(r.g.Now() + w.slice)
		if offerErr != nil {
			return nil, offerErr
		}
		if d := time.Since(t0).Seconds(); d > 0 {
			p.tput = append(p.tput, float64(r.orderedAll()-o0)/d)
		}
	}
	p.cpu = cpuTime() - cpu0
	p.loadSecs = time.Since(wall0).Seconds()
	p.delivered = r.orderedAll() - ord0
	m1 := r.g.Metrics().Total
	p.layers = layerSnap{obs: m1}.minus(layerSnap{obs: m0})
	gl1 := r.groupCounts()
	p.groups = groupsLayer{
		layerNs:  r.layerNs,
		routed:   gl1.routed - gl0.routed,
		filtered: gl1.filtered - gl0.filtered,
	}
	p.sim = simLayer{packets: r.g.NetStats().Delivered - pk0, peakPending: r.g.PeakPending()}
	p.peakRSS = peakRSSMB()

	// Stop offering and drain.
	stopAt := r.g.Now()
	offerErr = errors.New("load stopped")
	final := *win
	final.end = int64(stopAt)
	r.gate.win.Store(&final)
	live := make([]bool, w.procs)
	for i := range live {
		live[i] = true
	}
	for t := stopAt; !r.gate.drained(live, accepted, true); {
		if t-stopAt > 5*time.Second {
			p.errs = append(p.errs, "simulated ring did not deliver every accepted message within 5s of virtual time")
			break
		}
		t += 10 * time.Millisecond
		r.g.Run(t)
	}
	p.errs = append(p.errs, r.gate.verify(live, accepted, true)...)
	p.lat.add(r.gate.logs())
	p.configs = int(p.layers.counter(obs.CConfigsRegular))

	// Crash processes one at a time; time each reconfiguration of the
	// survivors in virtual time.
	for i := 1; i <= simCrashes; i++ {
		survivors := r.ids[:len(r.ids)-i]
		r.want = model.NewProcessSet(survivors...)
		r.installs = map[evs.ProcessID]time.Duration{}
		r.crashAt = r.g.Now() + time.Millisecond
		r.g.Crash(r.crashAt, r.ids[len(r.ids)-i])
		for t := r.crashAt; len(r.installs) < len(survivors); {
			if t-r.crashAt > 5*time.Second {
				return nil, fmt.Errorf("simulated survivors did not reconfigure within 5s of virtual time")
			}
			t += 5 * time.Millisecond
			r.g.Run(t)
		}
		var last time.Duration
		for _, at := range r.installs {
			if at > last {
				last = at
			}
		}
		p.failovers = append(p.failovers, (last - r.crashAt).Seconds())
	}
	return p, nil
}

// simCrashes is how many processes the simulator workload crashes, one
// at a time, after its window; failover_s is the median.
const simCrashes = 3

// orderedAll returns how many ring messages every process has delivered
// (the minimum over processes).
func (r *simRun) orderedAll() uint64 {
	min := ^uint64(0)
	for _, ml := range r.gate.members {
		ml.mu.Lock()
		if ml.count < min {
			min = ml.count
		}
		ml.mu.Unlock()
	}
	return min
}

func (r *simRun) groupCounts() groupsLayer {
	var gl groupsLayer
	for _, id := range r.ids {
		gl.filtered += r.top.Filtered(id)
		gl.routed += r.top.Filtered(id) + r.top.DeliveryCount(id)
	}
	return gl
}
