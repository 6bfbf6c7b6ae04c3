// Package flow provides 5-tuple flow keys, canonicalization, and the
// hash-based load-balancing computation that HILTI's concurrency model
// builds on (paper §3.2): hashing a flow's 5-tuple into an integer and
// interpreting it as a virtual-thread ID serializes all per-flow
// computation without locks.
package flow

import (
	"fmt"

	"hilti/internal/pkt/layers"
	"hilti/internal/rt/values"
)

// Key identifies a unidirectional flow.
type Key struct {
	SrcIP, DstIP     [16]byte
	SrcPort, DstPort uint16
	Proto            uint8
}

// FromIPv4 builds a Key from 4-byte addresses in IPv4-mapped form.
func FromIPv4(src, dst [4]byte, srcPort, dstPort uint16, proto uint8) Key {
	var k Key
	k.SrcIP[10], k.SrcIP[11] = 0xFF, 0xFF
	copy(k.SrcIP[12:], src[:])
	k.DstIP[10], k.DstIP[11] = 0xFF, 0xFF
	copy(k.DstIP[12:], dst[:])
	k.SrcPort, k.DstPort, k.Proto = srcPort, dstPort, proto
	return k
}

// FromFrame decodes an Ethernet/IPv4/TCP-or-UDP frame just far enough to
// extract its 5-tuple. ok is false for frames the sharded pipeline cannot
// key (non-IPv4, other transports, truncated headers); those stay on a
// deterministic default virtual thread instead.
func FromFrame(frame []byte) (Key, bool) {
	eth, err := layers.DecodeEthernet(frame)
	if err != nil || eth.EtherType != layers.EtherTypeIPv4 {
		return Key{}, false
	}
	ip, err := layers.DecodeIPv4(eth.Payload)
	if err != nil {
		return Key{}, false
	}
	switch ip.Protocol {
	case layers.IPProtoTCP:
		tcp, err := layers.DecodeTCP(ip.Payload)
		if err != nil {
			return Key{}, false
		}
		return FromIPv4(ip.Src, ip.Dst, tcp.SrcPort, tcp.DstPort, layers.IPProtoTCP), true
	case layers.IPProtoUDP:
		udp, err := layers.DecodeUDP(ip.Payload)
		if err != nil {
			return Key{}, false
		}
		return FromIPv4(ip.Src, ip.Dst, udp.SrcPort, udp.DstPort, layers.IPProtoUDP), true
	}
	return Key{}, false
}

// Reverse returns the opposite direction's key.
func (k Key) Reverse() Key {
	return Key{
		SrcIP: k.DstIP, DstIP: k.SrcIP,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

// Canonical returns a direction-independent key (the numerically smaller
// endpoint first) plus whether the input was already in canonical order.
// Both directions of a connection canonicalize identically, so connection
// tables and thread scheduling treat them as one unit.
func (k Key) Canonical() (Key, bool) {
	if k.less() {
		return k, true
	}
	return k.Reverse(), false
}

func (k Key) less() bool {
	for i := 0; i < 16; i++ {
		if k.SrcIP[i] != k.DstIP[i] {
			return k.SrcIP[i] < k.DstIP[i]
		}
	}
	return k.SrcPort <= k.DstPort
}

// Hash computes a direction-independent FNV-1a hash of the 5-tuple — the
// virtual-thread ID for scoped scheduling.
func (k Key) Hash() uint64 {
	c, _ := k.Canonical()
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for _, b := range c.SrcIP {
		mix(b)
	}
	for _, b := range c.DstIP {
		mix(b)
	}
	mix(byte(c.SrcPort >> 8))
	mix(byte(c.SrcPort))
	mix(byte(c.DstPort >> 8))
	mix(byte(c.DstPort))
	mix(c.Proto)
	return h
}

// SrcAddr returns the source as a HILTI addr value.
func (k Key) SrcAddr() values.Value { return values.AddrFrom16(k.SrcIP) }

// DstAddr returns the destination as a HILTI addr value.
func (k Key) DstAddr() values.Value { return values.AddrFrom16(k.DstIP) }

// String renders "src:sport -> dst:dport/proto".
func (k Key) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d/%d",
		values.Format(k.SrcAddr()), k.SrcPort,
		values.Format(k.DstAddr()), k.DstPort, k.Proto)
}

// WireSize is the length of a Key's serialized form.
const WireSize = 16 + 16 + 2 + 2 + 1

// Wire returns the key's serialized form — addresses, big-endian ports,
// protocol — the one layout checkpoints, WAL records and migration frames
// carry a flow key in.
func (k Key) Wire() []byte { return k.AppendWire(make([]byte, 0, WireSize)) }

// AppendWire appends the key's Wire form to dst.
func (k Key) AppendWire(dst []byte) []byte {
	dst = append(append(dst, k.SrcIP[:]...), k.DstIP[:]...)
	return append(dst, byte(k.SrcPort>>8), byte(k.SrcPort), byte(k.DstPort>>8), byte(k.DstPort), k.Proto)
}

// KeyFromWire parses the form Wire produces.
func KeyFromWire(raw []byte) (Key, error) {
	var k Key
	if len(raw) != WireSize {
		return k, fmt.Errorf("flow: key is %d bytes, want %d", len(raw), WireSize)
	}
	copy(k.SrcIP[:], raw[0:16])
	copy(k.DstIP[:], raw[16:32])
	k.SrcPort = uint16(raw[32])<<8 | uint16(raw[33])
	k.DstPort = uint16(raw[34])<<8 | uint16(raw[35])
	k.Proto = raw[36]
	return k, nil
}

// UID derives a Bro-style connection UID ("C" plus base62 of the hash and
// a start-time component), unique per (flow, first-seen time).
func UID(k Key, startNs int64) string {
	h := k.Hash() ^ uint64(startNs)*0x9E3779B97F4A7C15
	const alphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	buf := make([]byte, 0, 12)
	buf = append(buf, 'C')
	for i := 0; i < 11; i++ {
		buf = append(buf, alphabet[h%62])
		h /= 62
	}
	return string(buf)
}
