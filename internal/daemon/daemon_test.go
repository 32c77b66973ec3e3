package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// testNetConfig is the deployment timing profile scaled down for tests:
// real sockets on loopback are fast, and CI shouldn't wait 400ms to
// detect a kill — but the margins stay wide enough that scheduler
// hiccups under -race don't read as token loss.
func testNetConfig() *node.Config {
	cfg := DefaultNetConfig()
	cfg.TokenLoss = 150 * time.Millisecond
	cfg.TokenRetrans = 25 * time.Millisecond
	cfg.JoinRetry = 40 * time.Millisecond
	cfg.CommitTimeout = 100 * time.Millisecond
	cfg.RecoveryRetry = 30 * time.Millisecond
	cfg.RecoveryTimeout = 500 * time.Millisecond
	return &cfg
}

func startCluster(t *testing.T, network string, n int, traceDir string) ([]model.ProcessID, map[model.ProcessID]*Daemon, []string) {
	t.Helper()
	var ids []model.ProcessID
	for i := 0; i < n; i++ {
		ids = append(ids, model.ProcessID(fmt.Sprintf("p%02d", i+1)))
	}
	addrs, err := transport.ReserveLoopback(ids, network)
	if err != nil {
		t.Fatal(err)
	}
	daemons := make(map[model.ProcessID]*Daemon, n)
	var traces []string
	for _, id := range ids {
		trace := ""
		if traceDir != "" {
			trace = filepath.Join(traceDir, string(id)+".jsonl")
			traces = append(traces, trace)
		}
		d, err := New(Config{
			Self: id,
			Medium: func(h transport.Handler, met *obs.Metrics) (transport.Transport, error) {
				return transport.Dial(network, id, addrs, h, met)
			},
			Node: testNetConfig(), TracePath: trace,
		})
		if err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		daemons[id] = d
	}
	return ids, daemons, traces
}

func waitAllOperational(t *testing.T, daemons map[model.ProcessID]*Daemon, want []model.ProcessID, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for id, d := range daemons {
		left := time.Until(deadline)
		if left <= 0 || !d.WaitOperational(want, left) {
			t.Fatalf("%s never became operational with members %v; status %+v",
				id, want, d.Status())
		}
	}
}

func waitDeliveries(t *testing.T, daemons map[model.ProcessID]*Daemon, min uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, d := range daemons {
			if d.Deliveries() < min {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for id, d := range daemons {
				t.Logf("%s: %d deliveries, status %+v", id, d.Deliveries(), d.Status())
			}
			t.Fatalf("timed out waiting for %d deliveries everywhere", min)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFourDaemonKillCertified is the deployment scenario from the issue:
// a 4-daemon ring over loopback UDP carries agreed and safe traffic, one
// process is killed (transport torn down, no Fail event — as SIGKILL
// would leave it), the survivors deliver a configuration change and keep
// delivering traffic, and the merged per-process traces certify against
// the EVS specifications.
func TestFourDaemonKillCertified(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second ring timing test")
	}
	dir := t.TempDir()
	ids, daemons, traces := startCluster(t, "udp", 4, dir)
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()

	waitAllOperational(t, daemons, ids, 20*time.Second)

	// Traffic in the full ring: one agreed and one safe message per
	// process; every process delivers all eight.
	for i, id := range ids {
		if err := daemons[id].Submit([]byte(fmt.Sprintf("agreed-%d", i)), model.Agreed); err != nil {
			t.Fatalf("%s submit agreed: %v", id, err)
		}
		if err := daemons[id].Submit([]byte(fmt.Sprintf("safe-%d", i)), model.Safe); err != nil {
			t.Fatalf("%s submit safe: %v", id, err)
		}
	}
	waitDeliveries(t, daemons, 8, 20*time.Second)

	// Kill p04: transport down, no protocol goodbye, no Fail event.
	victim := ids[3]
	daemons[victim].Close()
	survivors := make(map[model.ProcessID]*Daemon)
	for _, id := range ids[:3] {
		survivors[id] = daemons[id]
	}
	waitAllOperational(t, survivors, ids[:3], 30*time.Second)

	// Every survivor saw a configuration change to the 3-member ring.
	want := model.NewProcessSet(ids[:3]...)
	for id, d := range survivors {
		confs := d.Configs()
		found := false
		for _, c := range confs {
			if c.ID.IsRegular() && c.Members.Equal(want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s never delivered the 3-member regular configuration; saw %v", id, confs)
		}
	}

	// Traffic still flows in the shrunken ring.
	before := map[model.ProcessID]uint64{}
	for id, d := range survivors {
		before[id] = d.Deliveries()
	}
	for _, id := range ids[:3] {
		if err := daemons[id].Submit([]byte("after-kill-"+string(id)), model.Agreed); err != nil {
			t.Fatalf("%s submit after kill: %v", id, err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		ok := true
		for id, d := range survivors {
			if d.Deliveries() < before[id]+3 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never delivered post-kill traffic")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stop everything, merge the traces, certify.
	for _, d := range daemons {
		d.Close()
	}
	events, err := MergeTraces(traces...)
	if err != nil {
		t.Fatalf("merge traces: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("merged trace is empty")
	}
	if vs := Certify(events); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("spec violation %s: %s", v.Spec, v.Msg)
		}
	}
}

// TestTCPRingFormsAndDelivers runs the same stack over the TCP mesh:
// ring forms, traffic delivers, trace certifies.
func TestTCPRingFormsAndDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second ring timing test")
	}
	dir := t.TempDir()
	ids, daemons, traces := startCluster(t, "tcp", 3, dir)
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()
	waitAllOperational(t, daemons, ids, 20*time.Second)
	for i, id := range ids {
		if err := daemons[id].Submit([]byte(fmt.Sprintf("m-%d", i)), model.Agreed); err != nil {
			t.Fatalf("%s submit: %v", id, err)
		}
	}
	waitDeliveries(t, daemons, 3, 20*time.Second)
	for _, d := range daemons {
		d.Close()
	}
	events, err := MergeTraces(traces...)
	if err != nil {
		t.Fatalf("merge traces: %v", err)
	}
	if vs := Certify(events); len(vs) > 0 {
		for _, v := range vs {
			t.Errorf("spec violation %s: %s", v.Spec, v.Msg)
		}
	}
}

// TestMessageBeforeNodeIsDropped pins the daemon's start-up order: a
// medium may deliver a message before New has created the node (a
// running peer's datagram reaching a freshly bound socket). The medium
// here does so deterministically, from its own goroutine, before its
// constructor returns; the daemon must drop the message, not
// dereference a nil node, and then form its ring as usual.
func TestMessageBeforeNodeIsDropped(t *testing.T) {
	hub := transport.NewMemHub([]model.ProcessID{"p01"}, nil)
	d, err := New(Config{
		Self: "p01",
		Medium: func(h transport.Handler, met *obs.Metrics) (transport.Transport, error) {
			early := make(chan struct{})
			go func() {
				defer close(early)
				h("p02", wire.Data{ID: model.MessageID{Sender: "p02", SenderSeq: 1}, Payload: []byte("early")})
			}()
			<-early
			return hub.Attach("p01", h, met)
		},
		Node: testNetConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if !d.WaitOperational([]model.ProcessID{"p01"}, 5*time.Second) {
		t.Fatalf("daemon never formed its singleton ring; status %+v", d.Status())
	}
	if n := d.Deliveries(); n != 0 {
		t.Fatalf("the early message was delivered (%d deliveries)", n)
	}
}

// TestStatusEndpoint checks the HTTP surface: /status and /metrics both
// answer while the daemon runs.
func TestStatusEndpoint(t *testing.T) {
	ids, daemons, _ := startCluster(t, "udp", 1, "")
	defer daemons[ids[0]].Close()
	addr, err := daemons[ids[0]].Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID != string(ids[0]) {
		t.Fatalf("status ID = %q, want %q", st.ID, ids[0])
	}
	resp2, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp2.StatusCode)
	}
}

// TestTraceRoundTrip checks the JSONL codec for every event shape.
func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	w, err := NewTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	members := model.NewProcessSet("p01", "p02")
	events := []model.Event{
		{Type: model.EventSend, Proc: "p01",
			Config:  model.ConfigID{Kind: model.Regular, Seq: 4, Rep: "p01"},
			Members: members,
			Msg:     model.MessageID{Sender: "p01", SenderSeq: 9},
			Service: model.Agreed},
		{Type: model.EventDeliver, Proc: "p02",
			Config:  model.ConfigID{Kind: model.Transitional, Seq: 5, Rep: "p01", PrevSeq: 4, PrevRep: "p01"},
			Members: members,
			Msg:     model.MessageID{Sender: "p01", SenderSeq: 9},
			Service: model.Safe},
		{Type: model.EventDeliverConf, Proc: "p01",
			Config:  model.ConfigID{Kind: model.Regular, Seq: 6, Rep: "p01"},
			Members: members, Primary: true},
		{Type: model.EventFail, Proc: "p02",
			Config: model.ConfigID{Kind: model.Regular, Seq: 6, Rep: "p01"}},
	}
	for i, e := range events {
		if err := w.Append(int64(i+1), e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := MergeTraces(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		e, g := events[i], got[i]
		if e.Type != g.Type || e.Proc != g.Proc || e.Config != g.Config ||
			!e.Members.Equal(g.Members) || e.Msg != g.Msg ||
			e.Service != g.Service || e.Primary != g.Primary {
			t.Errorf("event %d: got %+v, want %+v", i, g, e)
		}
	}
}

// TestMergeOrdersByTimestamp interleaves two files.
func TestMergeOrdersByTimestamp(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	wa, err := NewTraceWriter(a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := NewTraceWriter(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.ConfigID{Kind: model.Regular, Seq: 1, Rep: "pa"}
	mk := func(p model.ProcessID, seq uint64) model.Event {
		return model.Event{Type: model.EventSend, Proc: p, Config: cfg,
			Members: model.NewProcessSet("pa", "pb"),
			Msg:     model.MessageID{Sender: p, SenderSeq: seq}, Service: model.Agreed}
	}
	wa.Append(10, mk("pa", 1))
	wa.Append(30, mk("pa", 2))
	wb.Append(20, mk("pb", 1))
	wb.Append(40, mk("pb", 2))
	wa.Close()
	wb.Close()
	got, err := MergeTraces(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []string
	for _, e := range got {
		seqs = append(seqs, e.Msg.String())
	}
	want := []string{"pa:1", "pb:1", "pa:2", "pb:2"}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("merged order %v, want %v", seqs, want)
		}
	}
}
