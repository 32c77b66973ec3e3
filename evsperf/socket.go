package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
)

// socketWorkload is a ring of in-process hosts on loopback sockets: a
// closed loop that keeps every backlog full (kills == 0), or rounds of an
// open loop during which members are killed one at a time.
type socketWorkload struct {
	network string
	size    int
	// warmup precedes each saturated ring's measured window, while flow
	// control grows its budget.
	warmup time.Duration
	// Failover workloads: rate is the open-loop aggregate offered load in
	// messages per second; each round forms a fresh ring under load and
	// kills one member, settle apart, kills times.
	rate   float64
	kills  int
	settle time.Duration
}

// ringSeconds is the measured load one saturated ring carries. A longer
// run uses several fresh rings: figures differ more between rings than
// between the seconds of one ring, so a median over the seconds of
// several rings is steadier than one long ring.
const ringSeconds = 5

// extraSetups is how many more rings an untraced socket pass forms and
// closes at once, so setup_s is a median over many formations of a
// few milliseconds each. failoverTrials is how many of them a saturated
// workload also kills one member of, for failover_s.
const (
	extraSetups    = 15
	failoverTrials = 5
)

const (
	drainTimeout    = 20 * time.Second
	failoverTimeout = 10 * time.Second
)

// phase is what one untraced or traced pass of a workload measured.
type phase struct {
	setups    []float64 // s
	lat       latencySummary
	tput      []float64 // per-second delivered-everywhere rates (steady)
	delivered uint64    // delivered at every live member in the window(s)
	loadSecs  float64   // window length(s), wall seconds
	cpu       time.Duration
	failovers []float64 // s
	configs   int       // regular configurations installed in the window(s)
	recovered []float64 // traced: recovery total ms
	exchanged []float64 // traced: recovery exchange ms
	kills     int

	attempted, refused, late uint64
	maxLate                  time.Duration
	errs                     []string

	// peakRSS is the process's peak resident memory (MiB) when the
	// measured load ended, before post-window checks and crashes.
	peakRSS float64

	layers  layerSnap // traced: layer deltas over the window(s)
	members int
	encNs   float64
	decNs   float64
	groups  groupsLayer // simulator only
	sim     simLayer    // simulator only
}

func (p *phase) addGen(g *generator) {
	p.attempted += g.attempted
	p.refused += g.refused
	p.late += g.late
	if g.maxLate > p.maxLate {
		p.maxLate = g.maxLate
	}
}

// failed counts refused sends; undelivered ones fail the gate.
func (p *phase) failed() uint64 { return p.refused }

func (p *phase) cpuPerMsg() float64 {
	if p.delivered == 0 {
		return 0
	}
	return float64(p.cpu.Microseconds()) / float64(p.delivered)
}

// runSocket runs one pass of a socket workload for seconds of measured
// load; tr selects the traced host.
func runSocket(w socketWorkload, seed uint64, seconds float64, tr *tracer) (*phase, error) {
	if w.kills > 0 {
		return runFailover(w, seed, seconds, tr)
	}
	return runSaturate(w, seed, seconds, tr)
}

func (w socketWorkload) spec(seed uint64, tr *tracer, collect bool) clusterSpec {
	return clusterSpec{network: w.network, size: w.size, seed: seed, tracer: tr, collectTrace: collect}
}

// timeSetups forms extraSetups idle rings and closes each; the first
// kills of them also lose one member each, timed as failovers.
func timeSetups(w socketWorkload, seed uint64, kills int, p *phase) error {
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < extraSetups; i++ {
		c, setup, err := startCluster(w.spec(seed, nil, false))
		if err != nil {
			return err
		}
		p.setups = append(p.setups, setup.Seconds())
		if i < kills {
			ft, err := c.failover(rng.Intn(w.size), failoverTimeout)
			if err != nil {
				c.close()
				return err
			}
			p.failovers = append(p.failovers, ft.Seconds())
		}
		c.close()
	}
	return nil
}

// runSaturate times idle rings' set-up and failover, then measures
// saturated rings in turn until seconds of load have been measured.
func runSaturate(w socketWorkload, seed uint64, seconds float64, tr *tracer) (*phase, error) {
	p := &phase{members: w.size}
	if tr == nil {
		if err := timeSetups(w, seed, failoverTrials, p); err != nil {
			return nil, err
		}
	}
	rings := int(math.Round(seconds / ringSeconds))
	if rings < 1 {
		rings = 1
	}
	for i := 0; i < rings; i++ {
		if err := saturatedRing(w, seed+uint64(i)<<32, seconds/float64(rings), tr, p); err != nil {
			return nil, fmt.Errorf("ring %d: %w", i, err)
		}
	}
	return p, nil
}

// saturatedRing forms one ring, keeps every backlog full through a
// warm-up and a measured window of seconds, drains, and applies the gate.
func saturatedRing(w socketWorkload, seed uint64, seconds float64, tr *tracer, p *phase) error {
	c, setup, err := startCluster(w.spec(seed, tr, false))
	if err != nil {
		return err
	}
	defer c.close()
	p.setups = append(p.setups, setup.Seconds())

	g := newGenerator(c, seed)
	start := time.Now()
	winStart := start.Add(w.warmup)
	win := &window{
		start: winStart.UnixNano(),
		end:   winStart.Add(time.Duration(seconds * float64(time.Second))).UnixNano(),
		width: int64(time.Second),
	}
	c.gate.win.Store(win)
	winEnd := time.Unix(0, win.end)

	if err := g.saturate(winStart); err != nil {
		return err
	}
	cpu0, snap0, wall0 := cpuTime(), c.layerSnapshot(), time.Now()
	if err := g.saturate(winEnd); err != nil {
		return err
	}
	p.cpu += cpuTime() - cpu0
	p.layers.add(c.layerSnapshot().minus(snap0))
	p.loadSecs += time.Since(wall0).Seconds()
	p.addGen(g)

	live := append([]bool(nil), c.live...)
	together := c.sameHistory(start)
	if !c.gate.waitDrained(live, g.accepted, together, drainTimeout) {
		p.errs = append(p.errs, fmt.Sprintf("ring did not deliver every accepted message within %v", drainTimeout))
	}
	p.errs = append(p.errs, c.gate.verify(live, g.accepted, together)...)
	p.configs += c.configsInstalled(winStart)
	logs := c.gate.logs()
	p.lat.add(logs)
	p.tput = append(p.tput, binThroughputs(logs, live, win)...)
	p.delivered += windowDelivered(logs, live)
	p.peakRSS = peakRSSMB()
	return nil
}

// runFailover runs rounds until seconds of load have been measured. Each
// round forms a fresh ring, offers open-loop load, and kills members one
// at a time, settle apart, timing each failover while the load goes on.
// The round's formal-model trace is certified by the spec checker after
// its load stops.
func runFailover(w socketWorkload, seed uint64, seconds float64, tr *tracer) (*phase, error) {
	p := &phase{members: w.size}
	if tr == nil {
		if err := timeSetups(w, seed, 0, p); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for round := 0; round == 0 || p.loadSecs < seconds; round++ {
		if err := failoverRound(w, seed+uint64(round)<<32, rng, tr, p); err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
	}
	return p, nil
}

func failoverRound(w socketWorkload, seed uint64, rng *rand.Rand, tr *tracer, p *phase) error {
	c, setup, err := startCluster(w.spec(seed, tr, true))
	if err != nil {
		return err
	}
	defer c.close()
	p.setups = append(p.setups, setup.Seconds())

	g := newGenerator(c, seed)
	start := time.Now()
	win := &window{start: start.UnixNano(), end: start.Add(time.Hour).UnixNano(), width: int64(time.Second)}
	c.gate.win.Store(win)
	cpu0, snap0 := cpuTime(), c.layerSnapshot()
	g.startOpen(w.rate, start)
	g.paceUntil(time.Now().Add(w.settle), nil)
	for k := 0; k < w.kills; k++ {
		var alive []int
		for i, ok := range c.live {
			if ok {
				alive = append(alive, i)
			}
		}
		victim := alive[rng.Intn(len(alive))]
		at := c.kill(victim)
		want := c.liveSet()
		var done time.Time
		installed := func() bool {
			var ok bool
			done, ok = c.installedSince(want, at)
			return ok
		}
		g.paceUntil(at.Add(failoverTimeout), installed)
		if !installed() {
			return fmt.Errorf("survivors %v did not install the shrunken configuration within %v", want.Members(), failoverTimeout)
		}
		p.failovers = append(p.failovers, done.Sub(at).Seconds())
		p.kills++
		g.paceUntil(time.Now().Add(w.settle), nil)
	}
	stop := time.Now()
	p.cpu += cpuTime() - cpu0
	p.layers.add(c.layerSnapshot().minus(snap0))
	final := *win
	final.end = stop.UnixNano()
	c.gate.win.Store(&final)
	p.loadSecs += final.seconds()
	p.addGen(g)
	p.peakRSS = peakRSSMB()
	if tr != nil {
		for _, h := range c.members {
			t, x := h.recoveries(start.Sub(tr.epoch))
			p.recovered = append(p.recovered, t...)
			p.exchanged = append(p.exchanged, x...)
		}
	}

	live := append([]bool(nil), c.live...)
	together := c.sameHistory(start)
	if !c.gate.waitDrained(live, g.accepted, together, drainTimeout) {
		p.errs = append(p.errs, fmt.Sprintf("survivors did not deliver every accepted message within %v", drainTimeout))
	}
	c.close()
	if errs := c.gate.verify(live, g.accepted, together); len(errs) > 0 {
		p.errs = append(p.errs, errs...)
		p.errs = append(p.errs, c.installHistory(start)...)
	}
	p.configs += c.configsInstalled(start)
	logs := c.gate.logs()
	p.lat.add(logs)
	p.delivered += windowDelivered(logs, live)
	if v := daemon.Certify(c.mergedTrace()); len(v) > 0 {
		p.errs = append(p.errs, fmt.Sprintf("spec checker: %d violations, first: %v", len(v), v[0]))
	}
	return nil
}

// layerSnapshot sums the traced hosts' layer totals and obs instruments
// (zero for an untraced cluster).
func (c *cluster) layerSnapshot() layerSnap {
	if c.traced == nil {
		return layerSnap{}
	}
	var s layerSnap
	var mets []*obs.Metrics
	for _, h := range c.members {
		s.acc.add(h.snapshot())
		mets = append(mets, h.met)
	}
	s.obs = obs.Cluster(mets...).Total
	return s
}

// layerSnap is a point-in-time (or, after minus, a windowed) reading of
// every layer's instruments.
type layerSnap struct {
	acc layerAcc
	obs obs.Snapshot
}

func (a layerSnap) minus(b layerSnap) layerSnap {
	d := layerSnap{acc: a.acc.sub(b.acc), obs: obs.Snapshot{
		Counters:   map[string]uint64{},
		Histograms: map[string]obs.HistSnapshot{},
	}}
	for k, v := range a.obs.Counters {
		d.obs.Counters[k] = v - b.obs.Counters[k]
	}
	for k, v := range a.obs.Histograms {
		o := b.obs.Histograms[k]
		d.obs.Histograms[k] = obs.HistSnapshot{Count: v.Count - o.Count, Sum: v.Sum - o.Sum}
	}
	return d
}

func (a *layerSnap) add(b layerSnap) {
	a.acc.add(b.acc)
	if a.obs.Counters == nil {
		a.obs = obs.Snapshot{Counters: map[string]uint64{}, Histograms: map[string]obs.HistSnapshot{}}
	}
	for k, v := range b.obs.Counters {
		a.obs.Counters[k] += v
	}
	for k, v := range b.obs.Histograms {
		h := a.obs.Histograms[k]
		h.Count += v.Count
		h.Sum += v.Sum
		a.obs.Histograms[k] = h
	}
}

func (a layerSnap) counter(c obs.Counter) float64 {
	return float64(a.obs.Counters[obs.CounterName(c)])
}

func (a layerSnap) histMean(h obs.Hist) float64 {
	return a.obs.Histograms[obs.HistName(h)].Mean()
}
