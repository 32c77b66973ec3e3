package main

import (
	"math"

	"repro/internal/obs"
)

// metric is one reported figure with its unit.
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the ring sees, printed on every
// workload with --trace 0. On sim-groups, times are virtual and CPU is
// host CPU per ordered message in virtual time.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"agreed_p50_ms", "ms"},
	{"agreed_p99_ms", "ms"},
	{"safe_p50_ms", "ms"},
	{"safe_p99_ms", "ms"},
	{"delivered_msgs_s", "msgs/s"},
	{"cpu_us_per_msg", "us/msg"},
	{"failover_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's figures, printed on every workload with
// --trace 1 (zero where a layer is not on the workload's path).
var perLayer = []metric{
	{"daemon.lock_wait_us_per_msg", "us/msg"},
	{"daemon.timer_fires_per_s", "1/s"},
	{"node.busy_us_per_msg", "us/msg"},
	{"node.backlog_refusals_per_submit", "ratio"},
	{"node.configs_installed", "count"},
	{"totem.rotations_per_s", "1/s"},
	{"totem.rotations_per_msg", "ratio"},
	{"totem.batch_fill_mean", "msgs"},
	{"totem.budget_per_visit_mean", "msgs"},
	{"totem.retrans_per_msg", "ratio"},
	{"transport.send_us_per_call", "us"},
	{"transport.packets_out_per_msg", "ratio"},
	{"transport.bytes_out_per_msg", "B/msg"},
	{"transport.drops_per_msg", "ratio"},
	{"transport.decode_errors", "count"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"stable.writes_per_msg", "ratio"},
	{"node.recovery_total_ms_p50", "ms"},
	{"node.recovery_exchange_ms_p50", "ms"},
	{"node.gathers_per_failover", "count"},
	{"membership.consensus_per_failover", "count"},
	{"membership.joins_sent_per_failover", "count"},
	{"groups.filtered_share", "share"},
	{"groups.layer_ns_per_delivery", "ns"},
	{"sim.packets_per_msg", "ratio"},
	{"sim.peak_pending", "count"},
	{"bench.gen_late_share", "share"},
	{"bench.gen_late_max_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.unexplained_share", "share"},
	{"failed_share", "share"},
}

// ratio divides, reading 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// finite maps an infinite latency (refused sends beyond the percentile)
// to the largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 0) {
		return math.MaxFloat64
	}
	return v
}

// orZero maps NaN (a median of nothing) to 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// endToEndValues computes the end-to-end figures of an untraced pass.
func endToEndValues(p *phase, throughput func(*phase) float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          median(p.setups),
		"agreed_p50_ms":    finite(median(p.lat.p50[0])),
		"agreed_p99_ms":    finite(median(p.lat.p99[0])),
		"safe_p50_ms":      finite(median(p.lat.p50[1])),
		"safe_p99_ms":      finite(median(p.lat.p99[1])),
		"delivered_msgs_s": throughput(p),
		"cpu_us_per_msg":   p.cpuPerMsg(),
		"failover_s":       median(p.failovers),
		"peak_rss_mb":      p.peakRSS,
	}
}

// medianThroughput is the median over the window's per-second (or, in
// the simulator, per-slice) delivered-everywhere rates; a window too
// short for a full second reads its total rate.
func medianThroughput(p *phase) float64 {
	if len(p.tput) == 0 {
		return totalThroughput(p)
	}
	return median(p.tput)
}

// totalThroughput is delivered-everywhere messages over the whole window.
func totalThroughput(p *phase) float64 { return ratio(float64(p.delivered), p.loadSecs) }

// perLayerValues computes the per-layer figures from a traced pass t and
// the untraced pass u it accompanies.
func perLayerValues(u, t *phase) map[string]float64 {
	msgs := float64(t.delivered)
	a := t.layers.acc
	c := t.layers.counter
	gathers := c(obs.CGatherTokenLoss) + c(obs.CGatherForeign) + c(obs.CGatherJoin) + c(obs.CGatherRecoveryTimeout)
	kills := float64(t.kills)
	layerNs := float64(a.nodeSelfNs + a.sendNs + a.deliverNs + t.groups.layerNs)
	return map[string]float64{
		"daemon.lock_wait_us_per_msg":        ratio(float64(a.lockWaitNs)/1e3, msgs),
		"daemon.timer_fires_per_s":           ratio(float64(a.timerFires), t.loadSecs),
		"node.busy_us_per_msg":               ratio(float64(a.nodeSelfNs)/1e3, msgs),
		"node.backlog_refusals_per_submit":   ratio(c(obs.CSubmitBacklog), c(obs.CSubmits)+c(obs.CSubmitBacklog)),
		"node.configs_installed":             float64(t.configs),
		"totem.rotations_per_s":              ratio(c(obs.CTokenRotations)/float64(t.members), t.loadSecs),
		"totem.rotations_per_msg":            ratio(c(obs.CTokenRotations)/float64(t.members), msgs),
		"totem.batch_fill_mean":              t.layers.histMean(obs.HBatchFill),
		"totem.budget_per_visit_mean":        t.layers.histMean(obs.HBudgetPerVisit),
		"totem.retrans_per_msg":              ratio(c(obs.CRetransServed), msgs),
		"transport.send_us_per_call":         ratio(float64(a.sendNs)/1e3, float64(a.sendCalls)),
		"transport.packets_out_per_msg":      ratio(c(obs.CWirePacketsOut), msgs),
		"transport.bytes_out_per_msg":        ratio(c(obs.CWireBytesOut), msgs),
		"transport.drops_per_msg":            ratio(c(obs.CWireDrops), msgs),
		"transport.decode_errors":            c(obs.CWireDecodeErrors),
		"wire.encode_ns_per_frame":           t.encNs,
		"wire.decode_ns_per_frame":           t.decNs,
		"stable.writes_per_msg":              ratio(float64(a.storeWrites), msgs),
		"node.recovery_total_ms_p50":         orZero(median(t.recovered)),
		"node.recovery_exchange_ms_p50":      orZero(median(t.exchanged)),
		"node.gathers_per_failover":          ratio(gathers, kills),
		"membership.consensus_per_failover":  ratio(c(obs.CMemConsensus), kills),
		"membership.joins_sent_per_failover": ratio(c(obs.CMemJoinsSent), kills),
		"groups.filtered_share":              ratio(float64(t.groups.filtered), float64(t.groups.routed)),
		"groups.layer_ns_per_delivery":       ratio(float64(t.groups.layerNs), float64(t.groups.routed)),
		"sim.packets_per_msg":                ratio(float64(t.sim.packets), msgs),
		"sim.peak_pending":                   float64(t.sim.peakPending),
		"bench.gen_late_share":               ratio(float64(u.late), float64(u.attempted)),
		"bench.gen_late_max_ms":              float64(u.maxLate) / 1e6,
		"bench.trace_overhead":               ratio(t.cpuPerMsg(), u.cpuPerMsg()),
		"bench.unexplained_share":            1 - ratio(layerNs, float64(t.cpu.Nanoseconds())),
		"failed_share":                       ratio(float64(u.failed()+t.failed()), float64(u.attempted+t.attempted)),
	}
}
