package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// MetricsHandler serves a snapshot taken per request: the Prometheus
// text exposition format by default, or the ExpvarMap JSON document when
// the request has format=json or a path ending in ".json".
func MetricsHandler(snapshot func() ClusterSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs := snapshot()
		if r.URL.Query().Get("format") == "json" || strings.HasSuffix(r.URL.Path, ".json") {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(ExpvarMap(cs))
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, cs)
	})
}

// WritePrometheus renders a cluster snapshot in the Prometheus text
// exposition format (version 0.0.4). Every series carries a proc label
// naming its scope; histograms are emitted with cumulative _bucket series
// and power-of-two le bounds, plus _sum and _count. Series order is
// deterministic: metric name, then scope.
func WritePrometheus(w io.Writer, cs ClusterSnapshot) error {
	bw := bufio.NewWriter(w)
	procs := cs.ProcNames()

	for c := Counter(0); c < numCounters; c++ {
		name := counterNames[c]
		fmt.Fprintf(bw, "# TYPE evs_%s counter\n", name)
		for _, p := range procs {
			fmt.Fprintf(bw, "evs_%s{proc=%q} %d\n", name, p, cs.Procs[p].Counters[name])
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		name := gaugeNames[g]
		fmt.Fprintf(bw, "# TYPE evs_%s gauge\n", name)
		for _, p := range procs {
			fmt.Fprintf(bw, "evs_%s{proc=%q} %d\n", name, p, cs.Procs[p].Gauges[name])
		}
	}
	for h := Hist(0); h < numHists; h++ {
		name := histNames[h]
		fmt.Fprintf(bw, "# TYPE evs_%s histogram\n", name)
		for _, p := range procs {
			hs := cs.Procs[p].Histograms[name]
			cum := uint64(0)
			for i, b := range hs.Buckets {
				cum += b
				if b == 0 && i < len(hs.Buckets)-1 {
					// Sparse output: only materialised bounds and the
					// terminal +Inf bucket; cumulative counts make the
					// omitted buckets recoverable.
					continue
				}
				le := "+Inf"
				if i < len(hs.Buckets)-1 {
					le = fmt.Sprintf("%d", BucketBound(i))
				}
				fmt.Fprintf(bw, "evs_%s_bucket{proc=%q,le=%q} %d\n", name, p, le, cum)
			}
			fmt.Fprintf(bw, "evs_%s_sum{proc=%q} %d\n", name, p, hs.Sum)
			fmt.Fprintf(bw, "evs_%s_count{proc=%q} %d\n", name, p, hs.Count)
		}
	}
	return bw.Flush()
}

// ExpvarMap renders a cluster snapshot as the nested map expvar expects
// from an expvar.Func: stable JSON-marshalable plain data. Keys are scope
// names; each scope maps metric name to value (histograms appear as
// {count, sum, mean}).
func ExpvarMap(cs ClusterSnapshot) map[string]any {
	out := make(map[string]any, len(cs.Procs)+1)
	render := func(s Snapshot) map[string]any {
		sm := make(map[string]any, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
		for k, v := range s.Counters {
			sm[k] = v
		}
		for k, v := range s.Gauges {
			sm[k] = v
		}
		for k, h := range s.Histograms {
			sm[k] = map[string]any{"count": h.Count, "sum": h.Sum, "mean": h.Mean()}
		}
		return sm
	}
	for p, s := range cs.Procs {
		out[p] = render(s)
	}
	out["total"] = render(cs.Total)
	return out
}

// CounterNames returns the full sorted counter catalog (for parity tests
// and documentation generators).
func CounterNames() []string {
	out := make([]string, 0, int(numCounters))
	for c := Counter(0); c < numCounters; c++ {
		out = append(out, counterNames[c])
	}
	sort.Strings(out)
	return out
}

// GaugeNames returns the full sorted gauge catalog.
func GaugeNames() []string {
	out := make([]string, 0, int(numGauges))
	for g := Gauge(0); g < numGauges; g++ {
		out = append(out, gaugeNames[g])
	}
	sort.Strings(out)
	return out
}

// HistNames returns the full sorted histogram catalog.
func HistNames() []string {
	out := make([]string, 0, int(numHists))
	for h := Hist(0); h < numHists; h++ {
		out = append(out, histNames[h])
	}
	sort.Strings(out)
	return out
}
