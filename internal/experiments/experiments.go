// Package experiments regenerates the paper's figures and the protocol
// characterisation series. The ICDCS 1994 paper has no quantitative
// evaluation tables — its figures are the formal specifications (Figures
// 1-5), a worked partition/merge scenario (Figure 6) and the layered
// virtual-synchrony architecture (Figure 7) — so reproduction means
// executable conformance: protocol executions that pass the specification
// checker, deliberately violating traces that the checker flags, the exact
// Figure 6 scenario, the Figure 7 layering validated against Birman's
// model, plus the performance characterisation the Totem companion papers
// report (ordering throughput, safe-versus-agreed latency, recovery cost)
// and the paper's availability claim (all components make progress, versus
// the primary component only under virtual synchrony).
//
// Both cmd/evsbench and the repository's benchmark suite call into this
// package, so the printed report and the testing.B measurements stay in
// agreement.
package experiments

import (
	"fmt"
	"time"

	evs "repro"
	"repro/internal/model"
	"repro/internal/spec"
)

// CheckerRow is one conformance row of the Figure 1-5 reproduction.
type CheckerRow struct {
	Spec string // which specification clause
	Case string // "conforming" or the violation scenario
	// WantViolation is whether the checker must flag the trace.
	WantViolation bool
	// Flagged is whether it did.
	Flagged bool
}

// Pass reports whether the checker behaved as required.
func (r CheckerRow) Pass() bool { return r.WantViolation == r.Flagged }

// Figures1to5 exercises the specification checker in both directions: a
// conforming protocol execution per specification cluster, and a
// deliberately violating hand-built trace per clause (the scenarios drawn
// in Figures 1-5).
func Figures1to5(seed int64) []CheckerRow {
	var rows []CheckerRow

	// Conforming executions: one churny run checked per cluster.
	g := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: seed})
	ids := g.IDs()
	for i := 0; i < 12; i++ {
		svc := evs.Safe
		if i%2 == 0 {
			svc = evs.Agreed
		}
		g.Send(time.Duration(150+i*20)*time.Millisecond, ids[i%4], []byte{byte(i)}, svc)
	}
	g.Partition(250*time.Millisecond, ids[:2], ids[2:])
	g.Merge(550 * time.Millisecond)
	g.Run(1500 * time.Millisecond)
	flagged := map[string]bool{}
	for _, v := range g.Check(true) {
		flagged[v.Spec] = true
	}
	for _, cl := range []string{"1.3", "1.4", "2.1", "2.2", "3", "4", "5", "6.1/6.2", "6.3", "7.1", "7.2"} {
		rows = append(rows, CheckerRow{
			Spec:          cl,
			Case:          "conforming protocol execution",
			WantViolation: false,
			Flagged:       flagged[cl],
		})
	}

	// Violating traces, one per clause (Figure 1-5 scenarios).
	rows = append(rows, violatingTraces()...)
	return rows
}

// violatingTraces builds one minimal violating trace per specification
// clause and reports whether the checker flags it.
func violatingTraces() []CheckerRow {
	cfg1 := model.RegularID(1, "p")
	cfg2 := model.RegularID(2, "p")
	pqr := model.NewProcessSet("p", "q", "r")
	pq := model.NewProcessSet("p", "q")
	m1 := model.MessageID{Sender: "p", SenderSeq: 1}
	m2 := model.MessageID{Sender: "q", SenderSeq: 1}
	conf := func(p model.ProcessID, c model.ConfigID, mem model.ProcessSet) model.Event {
		return model.Event{Type: model.EventDeliverConf, Proc: p, Config: c, Members: mem}
	}
	send := func(p model.ProcessID, m model.MessageID, c model.ConfigID, svc model.Service) model.Event {
		return model.Event{Type: model.EventSend, Proc: p, Msg: m, Config: c, Service: svc}
	}
	deliver := func(p model.ProcessID, m model.MessageID, c model.ConfigID, svc model.Service) model.Event {
		return model.Event{Type: model.EventDeliver, Proc: p, Msg: m, Config: c, Members: pqr, Service: svc}
	}
	base := []model.Event{conf("p", cfg1, pqr), conf("q", cfg1, pqr), conf("r", cfg1, pqr)}

	cases := []struct {
		spec   string
		name   string
		events []model.Event
	}{
		{"1.3", "delivery without a send (Figure 1)",
			append(append([]model.Event{}, base...), deliver("q", m1, cfg1, model.Agreed))},
		{"1.4", "same message sent twice (Figure 1)",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), send("p", m1, cfg1, model.Agreed))},
		{"2.2", "event outside the current configuration (Figure 2)",
			append(append([]model.Event{}, base...), send("p", m1, cfg2, model.Agreed))},
		{"3", "sender moved on without self-delivery (Figure 3)",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), conf("p", cfg2, pq))},
		{"4", "joint successors, different delivery sets (Figure 4)",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), deliver("p", m1, cfg1, model.Agreed),
				conf("p", cfg2, pq), conf("q", cfg2, pq))},
		{"5", "causal predecessor missing (Figure 5)",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), deliver("q", m1, cfg1, model.Agreed),
				send("q", m2, cfg1, model.Agreed), deliver("r", m2, cfg1, model.Agreed))},
		{"6.1/6.2", "conflicting delivery orders",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), send("q", m2, cfg1, model.Agreed),
				deliver("p", m1, cfg1, model.Agreed), deliver("p", m2, cfg1, model.Agreed),
				deliver("q", m2, cfg1, model.Agreed), deliver("q", m1, cfg1, model.Agreed))},
		{"6.3", "delivery prefix broken",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), send("q", m2, cfg1, model.Agreed),
				deliver("p", m1, cfg1, model.Agreed), deliver("p", m2, cfg1, model.Agreed),
				deliver("r", m2, cfg1, model.Agreed))},
		{"7.1", "safe delivery without counterpart",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Safe),
				deliver("p", m1, cfg1, model.Safe), deliver("q", m1, cfg1, model.Safe),
				conf("r", model.RegularID(5, "r"), model.NewProcessSet("r")))},
		{"7.2", "safe delivery in uninstalled configuration",
			[]model.Event{
				conf("p", cfg1, pqr), conf("q", cfg1, pqr),
				send("p", m1, cfg1, model.Safe), deliver("p", m1, cfg1, model.Safe),
			}},
	}
	var rows []CheckerRow
	for _, c := range cases {
		vs := spec.NewChecker(c.events, spec.Options{Settled: true}).CheckAll()
		hit := false
		for _, v := range vs {
			if v.Spec == c.spec {
				hit = true
			}
		}
		rows = append(rows, CheckerRow{
			Spec:          c.spec,
			Case:          c.name,
			WantViolation: true,
			Flagged:       hit,
		})
	}
	return rows
}

// Fig6Result captures the Figure 6 reproduction.
type Fig6Result struct {
	// ConfigSeqs is the configuration sequence delivered at each
	// process, rendered.
	ConfigSeqs map[evs.ProcessID][]string
	// QRTransitional reports whether q and r delivered the two
	// configuration changes of Figure 6: transitional {q,r} then
	// regular {q,r,s,t}.
	QRTransitional bool
	// PIsolated reports whether p finished in the singleton regular
	// configuration via a singleton transitional configuration.
	PIsolated bool
	// Violations from the specification checker (empty on success).
	Violations []evs.Violation
}

// Figure6 reproduces the paper's worked example: a regular configuration
// {p,q,r} partitions; p becomes isolated while q and r merge with the
// separate component {s,t}.
func Figure6(seed int64) Fig6Result {
	ids := []evs.ProcessID{"p", "q", "r", "s", "t"}
	g := evs.NewGroup(evs.Options{Processes: ids, Seed: seed})
	g.Partition(0, []evs.ProcessID{"p", "q", "r"}, []evs.ProcessID{"s", "t"})
	for i := 0; i < 6; i++ {
		g.Send(time.Duration(150+i*8)*time.Millisecond, ids[i%3], []byte{byte(i)}, evs.Safe)
	}
	g.Partition(300*time.Millisecond, []evs.ProcessID{"p"}, []evs.ProcessID{"q", "r", "s", "t"})
	g.Run(900 * time.Millisecond)

	res := Fig6Result{ConfigSeqs: make(map[evs.ProcessID][]string)}
	for _, id := range ids {
		for _, ce := range g.ConfigChanges(id) {
			res.ConfigSeqs[id] = append(res.ConfigSeqs[id], ce.Config.String())
		}
	}
	qr := func(id evs.ProcessID) bool {
		seq := g.ConfigChanges(id)
		if len(seq) < 3 {
			return false
		}
		last := seq[len(seq)-1].Config
		tr := seq[len(seq)-2].Config
		old := seq[len(seq)-3].Config
		return old.ID.IsRegular() && old.Members.Equal(evs.NewProcessSet("p", "q", "r")) &&
			tr.ID.IsTransitional() && tr.Members.Equal(evs.NewProcessSet("q", "r")) &&
			tr.ID.Prev() == old.ID &&
			last.ID.IsRegular() && last.Members.Equal(evs.NewProcessSet("q", "r", "s", "t"))
	}
	res.QRTransitional = qr("q") && qr("r")
	pseq := g.ConfigChanges("p")
	if n := len(pseq); n >= 2 {
		last, tr := pseq[n-1].Config, pseq[n-2].Config
		res.PIsolated = last.ID.IsRegular() && last.Members.Equal(evs.NewProcessSet("p")) &&
			tr.ID.IsTransitional() && tr.Members.Equal(evs.NewProcessSet("p"))
	}
	res.Violations = g.Check(true)
	return res
}

// Fig7Result captures the Figure 7 reproduction: virtual synchrony layered
// over extended virtual synchrony.
type Fig7Result struct {
	// EVSDeliveriesMinority counts EVS-layer deliveries in the minority
	// component after the partition (nonzero: EVS keeps going).
	EVSDeliveriesMinority int
	// VSDeliveriesMinority counts VS-layer deliveries there (zero: the
	// filter blocks non-primary components).
	VSDeliveriesMinority int
	// VSViolations from Birman's model checker (empty on success).
	VSViolations []evs.VSViolation
	// EVSViolations from the EVS checker (empty on success).
	EVSViolations []evs.Violation
}

// Figure7 runs the layered stack through a partition with traffic on both
// sides and validates the filter output against the virtual synchrony
// model.
func Figure7(seed int64) Fig7Result {
	g := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: seed, EnableVS: true})
	ids := g.IDs()
	g.Partition(300*time.Millisecond, ids[:3], ids[3:])
	for i := 0; i < 6; i++ {
		g.Send(time.Duration(700+i*15)*time.Millisecond, ids[0], []byte("maj"), evs.Safe)
		g.Send(time.Duration(700+i*15)*time.Millisecond, ids[3], []byte("min"), evs.Safe)
	}
	g.Merge(1100 * time.Millisecond)
	g.Run(2 * time.Second)

	var res Fig7Result
	for _, id := range ids[3:] {
		res.EVSDeliveriesMinority += len(g.Deliveries(id))
		for _, e := range g.VSEvents(id) {
			if e.Deliver != nil && string(e.Deliver.Payload) == "min" {
				res.VSDeliveriesMinority++
			}
		}
	}
	res.VSViolations = g.CheckVS(true)
	res.EVSViolations = g.Check(true)
	return res
}

// Format helpers for the text report.

// FormatCheckerRows renders the Figure 1-5 table.
func FormatCheckerRows(rows []CheckerRow) string {
	out := fmt.Sprintf("%-8s %-45s %-10s %s\n", "spec", "case", "expected", "result")
	for _, r := range rows {
		want := "clean"
		if r.WantViolation {
			want = "violation"
		}
		verdict := "PASS"
		if !r.Pass() {
			verdict = "FAIL"
		}
		out += fmt.Sprintf("%-8s %-45s %-10s %s\n", r.Spec, r.Case, want, verdict)
	}
	return out
}
