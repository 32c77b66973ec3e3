package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/node"
)

// hooks are the callbacks a host runs on its protocol path.
type hooks struct {
	onDeliver func(node.Delivery)
	onConfig  func(node.ConfigChange)
	traceSink func(int64, model.Event)
}

// install is one regular configuration a host installed, and when.
type install struct {
	at      time.Time
	members model.ProcessSet
}

// cluster is one incarnation of an in-process socket ring.
type cluster struct {
	ids     []model.ProcessID
	members []*host
	live    []bool
	gate    *gate
	traced  *tracer // nil in untraced passes

	mu       sync.Mutex // guards installs and events
	installs [][]install
	events   [][]timedEvent
}

// timedEvent is one formal-model event with its wall-clock stamp.
type timedEvent struct {
	t int64
	e model.Event
}

// clusterSpec describes a socket cluster.
type clusterSpec struct {
	network string
	size    int
	seed    uint64
	// collectTrace keeps every member's formal-model events for spec
	// certification.
	collectTrace bool
	// tracer, when non-nil, traces every host.
	tracer *tracer
}

// setupTimeout bounds ring formation.
const setupTimeout = 20 * time.Second

// startCluster reserves ports, starts every member and waits until all
// of them have installed the full regular configuration. It returns the
// cluster and the set-up time: from the first member's constructor until
// the last member installed the full configuration.
func startCluster(spec clusterSpec) (*cluster, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, setup, err := tryStartCluster(spec)
		if err == nil {
			return c, setup, nil
		}
		lastErr = err
		var bindErr *bindError
		if !errors.As(err, &bindErr) {
			break
		}
	}
	return nil, 0, lastErr
}

// bindError is a host that could not start, typically because another
// process took its reserved port before it bound it: worth a retry.
type bindError struct{ err error }

func (e *bindError) Error() string { return e.err.Error() }

func tryStartCluster(spec clusterSpec) (*cluster, time.Duration, error) {
	c := &cluster{
		traced:   spec.tracer,
		installs: make([][]install, spec.size),
		events:   make([][]timedEvent, spec.size),
	}
	for i := 0; i < spec.size; i++ {
		c.ids = append(c.ids, model.ProcessID(fmt.Sprintf("p%02d", i+1)))
		c.live = append(c.live, true)
	}
	c.gate = newGate(spec.seed, c.ids)
	addrs, err := reservePorts(c.ids, spec.network)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for i, id := range c.ids {
		m, err := newHost(spec.tracer, id, addrs, spec.network, c.hooksFor(i, spec.collectTrace))
		if err != nil {
			c.close()
			return nil, 0, &bindError{fmt.Errorf("start %s: %w", id, err)}
		}
		c.members = append(c.members, m)
	}
	done, ok := c.waitInstalled(c.liveSet(), start, setupTimeout)
	if !ok {
		c.close()
		return nil, 0, fmt.Errorf("%d-member %s ring did not form within %v", spec.size, spec.network, setupTimeout)
	}
	return c, done.Sub(start), nil
}

// reservePorts picks a free loopback port per member.
func reservePorts(ids []model.ProcessID, network string) (map[model.ProcessID]string, error) {
	addrs := make(map[model.ProcessID]string, len(ids))
	var closers []func() error
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for _, id := range ids {
		switch network {
		case "udp":
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return nil, fmt.Errorf("reserve udp port: %w", err)
			}
			addrs[id] = conn.LocalAddr().String()
			closers = append(closers, conn.Close)
		case "tcp":
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserve tcp port: %w", err)
			}
			addrs[id] = ln.Addr().String()
			closers = append(closers, ln.Close)
		default:
			return nil, fmt.Errorf("unknown network %q", network)
		}
	}
	return addrs, nil
}

func (c *cluster) hooksFor(i int, collectTrace bool) hooks {
	h := hooks{
		onDeliver: func(d node.Delivery) {
			c.gate.deliver(i, d.Msg, d.Payload, time.Now().UnixNano())
		},
		onConfig: func(cc node.ConfigChange) {
			if !cc.Config.ID.IsRegular() {
				return
			}
			now := time.Now()
			c.mu.Lock()
			c.installs[i] = append(c.installs[i], install{at: now, members: cc.Config.Members})
			c.mu.Unlock()
		},
	}
	if collectTrace {
		h.traceSink = func(t int64, e model.Event) {
			c.mu.Lock()
			c.events[i] = append(c.events[i], timedEvent{t, e})
			c.mu.Unlock()
		}
	}
	return h
}

// liveSet returns the identifiers of the live members.
func (c *cluster) liveSet() model.ProcessSet {
	var ids []model.ProcessID
	for i, id := range c.ids {
		if c.live[i] {
			ids = append(ids, id)
		}
	}
	return model.NewProcessSet(ids...)
}

// installedSince reports when every live member had installed a regular
// configuration with exactly the given membership at or after since.
func (c *cluster) installedSince(want model.ProcessSet, since time.Time) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var last time.Time
	for i, ok := range c.live {
		if !ok {
			continue
		}
		found := false
		for _, in := range c.installs[i] {
			if !in.at.Before(since) && in.members.Equal(want) {
				if in.at.After(last) {
					last = in.at
				}
				found = true
				break
			}
		}
		if !found {
			return time.Time{}, false
		}
	}
	return last, true
}

// waitInstalled polls installedSince until it holds or the timeout.
func (c *cluster) waitInstalled(want model.ProcessSet, since time.Time, timeout time.Duration) (time.Time, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if at, ok := c.installedSince(want, since); ok {
			return at, true
		}
		if time.Now().After(deadline) {
			return time.Time{}, false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// configsInstalled counts the regular configurations installed at any
// member at or after since.
func (c *cluster) configsInstalled(since time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ins := range c.installs {
		for _, in := range ins {
			if !in.at.Before(since) {
				n++
			}
		}
	}
	return n
}

// sameHistory reports whether every live member installed the same
// sequence of regular configurations at or after since.
func (c *cluster) sameHistory(since time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ref []install
	first := true
	for i, ok := range c.live {
		if !ok {
			continue
		}
		var mine []install
		for _, in := range c.installs[i] {
			if !in.at.Before(since) {
				mine = append(mine, in)
			}
		}
		if first {
			ref, first = mine, false
			continue
		}
		if len(mine) != len(ref) {
			return false
		}
		for k := range mine {
			if !mine[k].members.Equal(ref[k].members) {
				return false
			}
		}
	}
	return true
}

// installHistory renders every member's regular configurations since
// since, to explain a gate failure.
func (c *cluster) installHistory(since time.Time) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for i, ins := range c.installs {
		var b strings.Builder
		fmt.Fprintf(&b, "%s installed:", c.ids[i])
		for _, in := range ins {
			fmt.Fprintf(&b, " %v@%.3fs", in.members.Members(), in.at.Sub(since).Seconds())
		}
		out = append(out, b.String())
	}
	return out
}

// kill closes member i, as a SIGKILL would leave it: no goodbye, no Fail
// event. It returns the kill time.
func (c *cluster) kill(i int) time.Time {
	at := time.Now()
	c.members[i].Close()
	c.live[i] = false
	return at
}

// failover kills member i and waits until every survivor has installed
// the shrunken regular configuration; it returns the failover time.
func (c *cluster) failover(i int, timeout time.Duration) (time.Duration, error) {
	at := c.kill(i)
	done, ok := c.waitInstalled(c.liveSet(), at, timeout)
	if !ok {
		return 0, fmt.Errorf("survivors %v did not install the shrunken configuration within %v", c.liveSet().Members(), timeout)
	}
	return done.Sub(at), nil
}

// close stops every member and waits for each to finish.
func (c *cluster) close() {
	for i, m := range c.members {
		m.Close()
		c.live[i] = false
	}
}

// mergedTrace interleaves the collected formal-model events by wall
// clock, each member's own order kept on ties (what evsd -check does
// with trace files).
func (c *cluster) mergedTrace() []model.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var all []timedEvent
	for _, evs := range c.events {
		all = append(all, evs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })
	out := make([]model.Event, len(all))
	for i, te := range all {
		out[i] = te.e
	}
	return out
}
