package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// sink collects delivered messages from a transport's receive goroutines.
type sink struct {
	mu   sync.Mutex
	msgs []wire.Message
	from []model.ProcessID
}

func (s *sink) handle(from model.ProcessID, msg wire.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.from = append(s.from, from)
	s.msgs = append(s.msgs, msg)
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.msgs)
}

// waitCount polls until the sink holds at least n messages.
func waitCount(t *testing.T, s *sink, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d messages, have %d", n, s.count())
		}
		time.Sleep(time.Millisecond)
	}
}

func testData(payload string) wire.Data {
	return wire.Data{
		ID:      model.MessageID{Sender: "p1", SenderSeq: 7},
		Ring:    model.ConfigID{Kind: model.Regular, Seq: 3, Rep: "p1"},
		Seq:     42,
		Service: model.Agreed,
		Payload: []byte(payload),
	}
}

// medium opens the members of one cluster for the shared conformance
// tests: it returns an opener that attaches one member, with its
// handler and scope, to a medium spanning every id.
type medium func(t *testing.T, ids []model.ProcessID) opener

type opener func(self model.ProcessID, h Handler, met *obs.Metrics) Transport

// socketMedium is a medium over loopback sockets of the given network.
func socketMedium(network string) medium {
	return func(t *testing.T, ids []model.ProcessID) opener {
		t.Helper()
		addrs, err := ReserveLoopback(ids, network)
		if err != nil {
			t.Fatal(err)
		}
		return func(self model.ProcessID, h Handler, met *obs.Metrics) Transport {
			tr, err := Dial(network, self, addrs, h, met)
			if err != nil {
				t.Fatalf("Dial(%s, %s): %v", network, self, err)
			}
			return tr
		}
	}
}

// memMedium is a medium over one in-process hub.
func memMedium(t *testing.T, ids []model.ProcessID) opener {
	hub := NewMemHub(ids, obs.New("net", nil))
	return func(self model.ProcessID, h Handler, met *obs.Metrics) Transport {
		tr, err := hub.Attach(self, h, met)
		if err != nil {
			t.Fatalf("Attach(%s): %v", self, err)
		}
		return tr
	}
}

var (
	udpMedium = socketMedium("udp")
	tcpMedium = socketMedium("tcp")
)

// openUDP starts a lone UDP transport on loopback and returns it with
// its bound address.
func openUDP(t *testing.T, cfg UDPConfig) (*UDP, string) {
	t.Helper()
	addrs, err := ReserveLoopback([]model.ProcessID{cfg.Self}, "udp")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Peers = addrs
	tr, err := NewUDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.Addr()
}

func testBroadcastReachesAll(t *testing.T, m medium) {
	ids := []model.ProcessID{"p1", "p2", "p3"}
	open := m(t, ids)
	sinks := make(map[model.ProcessID]*sink, len(ids))
	trs := make(map[model.ProcessID]Transport, len(ids))
	for _, id := range ids {
		s := &sink{}
		sinks[id] = s
		tr := open(id, s.handle, obs.New(string(id), nil))
		trs[id] = tr
		defer tr.Close()
	}
	trs["p1"].Broadcast(testData("hello"))
	for _, id := range ids {
		waitCount(t, sinks[id], 1)
	}
	for _, id := range ids {
		s := sinks[id]
		s.mu.Lock()
		if s.from[0] != "p1" {
			t.Errorf("%s: got sender %q, want p1", id, s.from[0])
		}
		d, ok := s.msgs[0].(wire.Data)
		if !ok || string(d.Payload) != "hello" || d.Seq != 42 {
			t.Errorf("%s: got %#v", id, s.msgs[0])
		}
		s.mu.Unlock()
	}
}

func testUnicastReachesOne(t *testing.T, m medium) {
	ids := []model.ProcessID{"p1", "p2", "p3"}
	open := m(t, ids)
	sinks := make(map[model.ProcessID]*sink, len(ids))
	trs := make(map[model.ProcessID]Transport, len(ids))
	for _, id := range ids {
		s := &sink{}
		sinks[id] = s
		tr := open(id, s.handle, obs.New(string(id), nil))
		trs[id] = tr
		defer tr.Close()
	}
	trs["p1"].Unicast("p2", testData("direct"))
	waitCount(t, sinks["p2"], 1)
	// Give stray fan-out (a bug) a moment to surface.
	time.Sleep(50 * time.Millisecond)
	if n := sinks["p1"].count(); n != 0 {
		t.Errorf("p1 received %d messages from a unicast to p2", n)
	}
	if n := sinks["p3"].count(); n != 0 {
		t.Errorf("p3 received %d messages from a unicast to p2", n)
	}
}

func testPeersSorted(t *testing.T, m medium) {
	ids := []model.ProcessID{"p3", "p1", "p2"}
	s := &sink{}
	tr := m(t, ids)("p1", s.handle, nil)
	defer tr.Close()
	got := tr.Peers()
	want := []model.ProcessID{"p1", "p2", "p3"}
	if len(got) != len(want) {
		t.Fatalf("Peers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Peers() = %v, want %v", got, want)
		}
	}
}

func testCloseIdempotent(t *testing.T, m medium) {
	met := obs.New("p1", nil)
	s := &sink{}
	tr := m(t, []model.ProcessID{"p1"})("p1", s.handle, met)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Sends after close drop and count, never panic.
	tr.Broadcast(testData("late"))
	if met.Counter(obs.CWireDrops) == 0 {
		t.Errorf("post-close broadcast was not counted as a drop")
	}
}

func TestUDPBroadcastReachesAll(t *testing.T) { testBroadcastReachesAll(t, udpMedium) }
func TestTCPBroadcastReachesAll(t *testing.T) { testBroadcastReachesAll(t, tcpMedium) }
func TestMemBroadcastReachesAll(t *testing.T) { testBroadcastReachesAll(t, memMedium) }
func TestUDPUnicastReachesOne(t *testing.T)   { testUnicastReachesOne(t, udpMedium) }
func TestTCPUnicastReachesOne(t *testing.T)   { testUnicastReachesOne(t, tcpMedium) }
func TestMemUnicastReachesOne(t *testing.T)   { testUnicastReachesOne(t, memMedium) }
func TestUDPPeersSorted(t *testing.T)         { testPeersSorted(t, udpMedium) }
func TestTCPPeersSorted(t *testing.T)         { testPeersSorted(t, tcpMedium) }
func TestMemPeersSorted(t *testing.T)         { testPeersSorted(t, memMedium) }
func TestUDPCloseIdempotent(t *testing.T)     { testCloseIdempotent(t, udpMedium) }
func TestTCPCloseIdempotent(t *testing.T)     { testCloseIdempotent(t, tcpMedium) }
func TestMemCloseIdempotent(t *testing.T)     { testCloseIdempotent(t, memMedium) }

// TestMemFullInboxDrops fills a member's inbox while its handler is
// stalled: the broadcaster never blocks, and the overflow is counted as
// a drop on the hub's scope.
func TestMemFullInboxDrops(t *testing.T) {
	ids := []model.ProcessID{"p1", "p2"}
	hubMet := obs.New("net", nil)
	hub := NewMemHub(ids, hubMet)
	release := make(chan struct{})
	stalled, err := hub.Attach("p2", func(model.ProcessID, wire.Message) { <-release }, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{}
	tr, err := hub.Attach("p1", s.handle, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 0; i < memInbox+10; i++ {
		tr.Unicast("p2", testData("x"))
	}
	if d := hubMet.Counter(obs.CNetDropped); d < 9 {
		t.Errorf("net dropped = %d, want the overflow counted", d)
	}
	close(release)
	stalled.Close()
	if _, err := hub.Attach("p9", s.handle, nil); err == nil {
		t.Error("a non-member attached to the hub")
	}
	if _, err := hub.Attach("p1", s.handle, nil); err == nil {
		t.Error("p1 attached twice")
	}
}

// TestUDPCorruptFrameCounted fires raw garbage and corrupted real frames
// at a UDP transport's socket: every one must be counted as a decode
// error and dropped, none may panic or reach the handler.
func TestUDPCorruptFrameCounted(t *testing.T) {
	met := obs.New("p1", nil)
	s := &sink{}
	tr, addr := openUDP(t, UDPConfig{Self: "p1", Handler: s.handle, Met: met})
	defer tr.Close()

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good, err := appendFrame(nil, "px", testData("x"))
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		{0xff, 0xff, 0xff},            // garbage
		good[:len(good)-3],            // truncated
		append([]byte{0x80}, good...), // mangled sender length
	}
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x40
	bad = append(bad, flip)

	sent := 0
	for _, b := range bad {
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	// A flipped bit mid-frame may still decode (payload bytes); require
	// every frame to be either delivered or counted, and the guaranteed
	// corruptions to be counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		errs := met.Counter(obs.CWireDecodeErrors)
		if int(errs)+s.count() >= sent && errs >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decode errors %d + delivered %d, want %d total with >= 3 errors",
				errs, s.count(), sent)
		}
		time.Sleep(time.Millisecond)
	}
	// A good frame still gets through afterwards. Count before writing:
	// the frame may be delivered before the write call returns.
	before := s.count()
	if _, err := conn.Write(good); err != nil {
		t.Fatal(err)
	}
	waitCount(t, s, before+1)
}

// TestTCPCorruptFrameCounted writes a corrupt length-prefixed frame to a
// TCP transport's listener: counted, dropped, no panic — and the
// connection keeps working for subsequent well-formed frames.
func TestTCPCorruptFrameCounted(t *testing.T) {
	met := obs.New("p1", nil)
	s := &sink{}
	addrs, err := ReserveLoopback([]model.ProcessID{"p1"}, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTCP(TCPConfig{Self: "p1", Peers: addrs, Handler: s.handle, Met: met})
	if err != nil {
		t.Fatal(err)
	}
	addr := tr.Addr()
	defer tr.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Well-formed length prefix, corrupt frame body.
	junk := []byte{0xff, 0xfe, 0xfd, 0xfc}
	buf := binary.AppendUvarint(nil, uint64(len(junk)))
	buf = append(buf, junk...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for met.Counter(obs.CWireDecodeErrors) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("corrupt frame never counted as decode error")
		}
		time.Sleep(time.Millisecond)
	}
	// Framing survived: a good frame on the same connection delivers.
	good, err := appendFrame(nil, "px", testData("after"))
	if err != nil {
		t.Fatal(err)
	}
	buf = binary.AppendUvarint(buf[:0], uint64(len(good)))
	buf = append(buf, good...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	waitCount(t, s, 1)
	if s.count() != 1 {
		t.Fatalf("delivered %d messages, want 1", s.count())
	}
}

// TestUDPOversizeBatchSplits broadcasts a batch whose encoding exceeds
// the datagram ceiling: it must arrive as multiple smaller batches
// covering the same messages, in order.
func TestUDPOversizeBatchSplits(t *testing.T) {
	met := obs.New("p1", nil)
	s := &sink{}
	tr, _ := openUDP(t, UDPConfig{Self: "p1", Handler: s.handle, Met: met, MaxDatagram: 512})
	defer tr.Close()

	ring := model.ConfigID{Kind: model.Regular, Seq: 1, Rep: "p1"}
	var msgs []wire.Data
	for i := 0; i < 8; i++ {
		d := testData("0123456789012345678901234567890123456789012345678901234567890123")
		d.Seq = uint64(i + 1)
		d.Ring = ring
		msgs = append(msgs, d)
	}
	tr.Broadcast(wire.DataBatch{Ring: ring, Msgs: msgs})

	// Count the Data messages across however many batches arrive.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		total := 0
		batches := len(s.msgs)
		for _, m := range s.msgs {
			if b, ok := m.(wire.DataBatch); ok {
				total += len(b.Msgs)
			}
		}
		s.mu.Unlock()
		if total == len(msgs) {
			if batches < 2 {
				t.Fatalf("oversize batch arrived in %d datagrams, want >= 2", batches)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("got %d of %d batched messages", total, len(msgs))
		}
		time.Sleep(time.Millisecond)
	}
	// Reassemble and check order.
	s.mu.Lock()
	var got []uint64
	for _, m := range s.msgs {
		for _, d := range m.(wire.DataBatch).Msgs {
			got = append(got, d.Seq)
		}
	}
	s.mu.Unlock()
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("reassembled seqs %v out of order", got)
		}
	}
}

// TestUDPOversizeSingleDropped broadcasts one unsplittable oversize
// message: dropped and counted, not sent.
func TestUDPOversizeSingleDropped(t *testing.T) {
	met := obs.New("p1", nil)
	s := &sink{}
	tr, _ := openUDP(t, UDPConfig{Self: "p1", Handler: s.handle, Met: met, MaxDatagram: 128})
	defer tr.Close()

	big := testData(string(make([]byte, 4096)))
	tr.Broadcast(big)
	if met.Counter(obs.CWireDrops) == 0 {
		t.Fatal("oversize single message not counted as a drop")
	}
	time.Sleep(20 * time.Millisecond)
	if s.count() != 0 {
		t.Fatalf("oversize message was delivered")
	}
}

// TestCountersMove sanity-checks the obs plumbing: bytes/packets in and
// out advance on a delivered broadcast.
func TestCountersMove(t *testing.T) {
	ids := []model.ProcessID{"p1", "p2"}
	addrs, err := ReserveLoopback(ids, "udp")
	if err != nil {
		t.Fatal(err)
	}
	mets := map[model.ProcessID]*obs.Metrics{}
	sinks := map[model.ProcessID]*sink{}
	for _, id := range ids {
		mets[id] = obs.New(string(id), nil)
		sinks[id] = &sink{}
	}
	var trs []Transport
	for _, id := range ids {
		tr, err := NewUDP(UDPConfig{Self: id, Peers: addrs, Handler: sinks[id].handle, Met: mets[id]})
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
		defer tr.Close()
	}
	trs[0].Broadcast(testData("count me"))
	waitCount(t, sinks["p2"], 1)
	m1, m2 := mets["p1"], mets["p2"]
	if m1.Counter(obs.CWirePacketsOut) != 2 { // self + p2
		t.Errorf("p1 packets out = %d, want 2", m1.Counter(obs.CWirePacketsOut))
	}
	if m1.Counter(obs.CWireBytesOut) == 0 {
		t.Error("p1 bytes out = 0")
	}
	if m2.Counter(obs.CWirePacketsIn) != 1 {
		t.Errorf("p2 packets in = %d, want 1", m2.Counter(obs.CWirePacketsIn))
	}
	if m2.Counter(obs.CWireBytesIn) != m1.Counter(obs.CWireBytesOut)/2 {
		t.Errorf("p2 bytes in = %d, p1 bytes out = %d (want half)",
			m2.Counter(obs.CWireBytesIn), m1.Counter(obs.CWireBytesOut))
	}
}

// TestFrameRoundTrip exercises the frame helpers directly.
func TestFrameRoundTrip(t *testing.T) {
	msg := testData("frame me")
	b, err := appendFrame(nil, "proc-with-a-long-name", msg)
	if err != nil {
		t.Fatal(err)
	}
	from, body, err := splitFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if from != "proc-with-a-long-name" {
		t.Fatalf("sender = %q", from)
	}
	got, err := wire.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	d := got.(wire.Data)
	if string(d.Payload) != "frame me" {
		t.Fatalf("payload = %q", d.Payload)
	}
	// Truncations never succeed with stray state.
	for i := 0; i < len(b); i++ {
		if _, _, err := splitFrame(b[:i]); err == nil {
			if _, err := wire.Decode(body[:0]); err == nil {
				t.Fatalf("truncated frame at %d decoded", i)
			}
		}
	}
}
