package evs

import (
	"fmt"

	"repro/internal/node"
)

// Runtime selects how an EVS cluster created by New executes.
type Runtime int

const (
	// RuntimeSim is the deterministic simulator (Group): virtual time,
	// seeded schedules, reproducible executions. The default.
	RuntimeSim Runtime = iota
	// RuntimeLive runs one daemon per process (LiveGroup) over the
	// in-process channel hub: real goroutines and wall-clock timers,
	// shared-memory message handoff.
	RuntimeLive
	// RuntimeUDP is the same LiveGroup over real loopback UDP sockets:
	// every message crosses the wire codec and the kernel's network
	// stack.
	RuntimeUDP
	// RuntimeTCP is the same LiveGroup over the TCP mesh transport.
	RuntimeTCP
)

// String names the runtime.
func (r Runtime) String() string {
	switch r {
	case RuntimeSim:
		return "sim"
	case RuntimeLive:
		return "live"
	case RuntimeUDP:
		return "udp"
	case RuntimeTCP:
		return "tcp"
	default:
		return fmt.Sprintf("runtime(%d)", int(r))
	}
}

// newConfig collects New's options.
type newConfig struct {
	runtime   Runtime
	processes []ProcessID
	num       int
	seed      int64
	node      *node.Config
	sim       *Options
}

// Option configures New.
type Option func(*newConfig)

// WithRuntime selects the execution runtime (default RuntimeSim).
func WithRuntime(r Runtime) Option { return func(c *newConfig) { c.runtime = r } }

// WithProcesses names the processes explicitly (simulator runtime only;
// the wall-clock runtimes generate p01..pNN).
func WithProcesses(ids ...ProcessID) Option {
	return func(c *newConfig) { c.processes = ids }
}

// WithNumProcesses sets the cluster size (default 3).
func WithNumProcesses(n int) Option { return func(c *newConfig) { c.num = n } }

// WithSeed sets the simulator's deterministic seed (ignored by the wall
// clock runtimes, whose schedules the OS owns).
func WithSeed(seed int64) Option { return func(c *newConfig) { c.seed = seed } }

// WithNodeConfig overrides protocol timing. Each runtime has its own
// default profile (simulated-network timings for sim and live, the
// deployment profile for udp/tcp), so set this only to experiment.
func WithNodeConfig(cfg node.Config) Option {
	return func(c *newConfig) { c.node = &cfg }
}

// WithSimOptions passes the full simulator Options through, for sim-only
// knobs (drop/dup rates, delay bounds, primary/VS layers,
// DiscardHistory). Fields covered by other options (Processes,
// NumProcesses, Seed, Node) are overridden by those options when both
// are given.
func WithSimOptions(opts Options) Option {
	return func(c *newConfig) { c.sim = &opts }
}

// New creates an EVS cluster behind the runtime-independent Cluster
// interface: the deterministic simulator by default, or — selected with
// WithRuntime — a wall-clock LiveGroup over the in-process hub or
// real loopback sockets. Scenario control beyond the Cluster surface
// (partitions, crashes, virtual-time scheduling, kills) stays on the
// concrete types; type-assert to *Group or *LiveGroup when a scenario
// needs it.
//
//	c, err := evs.New(evs.WithNumProcesses(5), evs.WithRuntime(evs.RuntimeUDP))
//	defer c.Close()
//	c.Submit(c.IDs()[0], []byte("hello"), evs.Safe)
func New(opts ...Option) (Cluster, error) {
	var c newConfig
	for _, o := range opts {
		o(&c)
	}
	n := c.num
	if n <= 0 {
		if len(c.processes) > 0 {
			n = len(c.processes)
		} else if c.sim != nil && c.sim.NumProcesses > 0 {
			n = c.sim.NumProcesses
		} else {
			n = 3
		}
	}
	switch c.runtime {
	case RuntimeSim:
		simOpts := Options{}
		if c.sim != nil {
			simOpts = *c.sim
		}
		if len(c.processes) > 0 {
			simOpts.Processes = c.processes
		}
		simOpts.NumProcesses = n
		if c.seed != 0 {
			simOpts.Seed = c.seed
		}
		if c.node != nil {
			simOpts.Node = c.node
		}
		return NewGroup(simOpts), nil
	case RuntimeLive, RuntimeUDP, RuntimeTCP:
		if len(c.processes) > 0 {
			return nil, fmt.Errorf("evs.New: the %s runtime names processes p01..pNN; use WithNumProcesses", c.runtime)
		}
		network := c.runtime.String()
		if c.runtime == RuntimeLive {
			network = "mem"
		}
		return NewLiveGroup(n, network, c.node)
	default:
		return nil, fmt.Errorf("evs.New: unknown runtime %v", c.runtime)
	}
}
