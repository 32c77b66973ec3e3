// Package transport carries protocol messages between the processes of
// a cluster. The socket transports serialise each broadcast through the
// internal/wire binary codec and move bytes through real sockets — UDP
// unicast fan-out (the LAN profile, lossy like the hardware broadcast
// Totem ran on) or a TCP mesh fallback (for networks that eat UDP). The
// in-process MemHub is the same boundary without the codec: it hands the
// immutable message values to every receiver, as the simulator does.
//
// A Transport implements the medium half of node.Env (node.Transport)
// plus addressing: unicast, the configured peer set, and shutdown. The
// ownership contract is the one documented on node.Transport — messages
// are immutable after handoff — which is what lets a transport encode a
// broadcast once and write the same buffer to every peer, and lets
// decoded messages alias their receive buffers.
//
// Every implementation is instrumented through internal/obs: frames and
// bytes in/out, encode/decode errors, and transport-level drops
// (oversize datagrams, full peer queues). Decode failures are counted
// and dropped, never panicked: a corrupt frame is the network's
// prerogative, and the protocol's retransmission machinery recovers.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Handler receives one decoded message at the local process. Handlers
// run on the transport's receive goroutines: they must synchronise their
// own state and must not block indefinitely. The message aliases a
// receive buffer owned by the transport's decoder; per the wire
// ownership contract it is immutable and may be retained.
type Handler func(from model.ProcessID, msg wire.Message)

// Transport is a medium for one process of the cluster: the node's
// Broadcast plus addressing and lifecycle. Implementations deliver the
// sender's own broadcasts back to it through the medium (never by
// calling the handler synchronously from Broadcast — the caller may
// hold the node lock).
type Transport interface {
	node.Transport
	// Unicast sends a message to one peer (retransmission traffic that
	// would be wasted on the whole component).
	Unicast(to model.ProcessID, msg wire.Message)
	// Peers returns the configured membership of the local component,
	// sorted, including the local process.
	Peers() []model.ProcessID
	// Close stops the transport: sockets close, goroutines drain, and
	// subsequent sends are dropped (counted).
	Close() error
}

// ErrClosed reports an operation on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Dial opens a socket transport for self: network "udp" (also the
// empty string) or "tcp", with every member's address in peers.
func Dial(network string, self model.ProcessID, peers map[model.ProcessID]string, h Handler, met *obs.Metrics) (Transport, error) {
	switch network {
	case "", "udp":
		t, err := NewUDP(UDPConfig{Self: self, Peers: peers, Handler: h, Met: met})
		if err != nil {
			return nil, err
		}
		return t, nil
	case "tcp":
		t, err := NewTCP(TCPConfig{Self: self, Peers: peers, Handler: h, Met: met})
		if err != nil {
			return nil, err
		}
		return t, nil
	}
	return nil, fmt.Errorf("transport: unknown network %q", network)
}

// ReserveLoopback picks a free loopback address per process for Dial by
// binding and releasing a port. Another program may take a port in the
// gap before the transport binds it; in-process clusters and tests
// accept that.
func ReserveLoopback(ids []model.ProcessID, network string) (map[model.ProcessID]string, error) {
	addrs := make(map[model.ProcessID]string, len(ids))
	for _, id := range ids {
		switch network {
		case "", "udp":
			conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return nil, fmt.Errorf("transport: reserve udp port: %w", err)
			}
			addrs[id] = conn.LocalAddr().String()
			conn.Close()
		case "tcp":
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("transport: reserve tcp port: %w", err)
			}
			addrs[id] = ln.Addr().String()
			ln.Close()
		default:
			return nil, fmt.Errorf("transport: unknown network %q", network)
		}
	}
	return addrs, nil
}

// A frame is one message on the medium:
//
//	len(sender) sender | encoded message
//
// (TCP additionally length-prefixes each frame on the stream.)

// appendFrame encodes a frame into dst.
func appendFrame(dst []byte, from model.ProcessID, msg wire.Message) ([]byte, error) {
	if len(from) > wire.MaxProcIDLen {
		return nil, wire.ErrUnencodable
	}
	dst = binary.AppendUvarint(dst, uint64(len(from)))
	dst = append(dst, from...)
	return wire.AppendMessage(dst, msg)
}

// splitFrame separates a frame's sender from its message bytes.
func splitFrame(b []byte) (model.ProcessID, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > wire.MaxProcIDLen || n > uint64(len(b)-k) {
		return "", nil, wire.ErrTruncated
	}
	return model.ProcessID(b[k : k+int(n)]), b[k+int(n):], nil
}

// sortedPeers copies and sorts a peer map's keys.
func sortedPeers(peers map[model.ProcessID]string) []model.ProcessID {
	out := make([]model.ProcessID, 0, len(peers))
	for id := range peers {
		//lint:allow determinism the id set is sorted immediately below
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// countOut records one sent frame of the given size.
func countOut(met *obs.Metrics, n int) {
	met.Inc(obs.CWirePacketsOut)
	met.Add(obs.CWireBytesOut, uint64(n))
}

// countIn records one received frame of the given size.
func countIn(met *obs.Metrics, n int) {
	met.Inc(obs.CWirePacketsIn)
	met.Add(obs.CWireBytesIn, uint64(n))
}
