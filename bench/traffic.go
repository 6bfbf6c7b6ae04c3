// Seeded inputs. Everything the systems under test receive — packets and
// rule tables — is generated here from -seed before any timing starts, and
// described (counts, sizes, digest) in every result so two results can be
// checked for having measured the same traffic.

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/classifier"
	"hilti/internal/rt/values"
)

// scale fixes how much traffic one pass carries. fullScale is what
// BENCHMARK.json's numbers are measured at; toyScale is for the harness's
// own tests.
type scale struct {
	Name     string `json:"name"`
	Sessions int    `json:"http_sessions"`
	Txns     int    `json:"dns_transactions"`
	Rules    int    `json:"classifier_rules"`
}

var (
	fullScale = scale{Name: "full", Sessions: 2000, Txns: 20000, Rules: 10000}
	toyScale  = scale{Name: "toy", Sessions: 20, Txns: 200, Rules: 64}
)

// traceKind names which generated trace a workload consumes.
type traceKind string

const (
	traceHTTP   traceKind = "http"
	traceDNS    traceKind = "dns"
	traceMerged traceKind = "merged"
)

// traceStart is shared by both generators so the merged trace interleaves
// HTTP and DNS instead of playing one after the other.
var traceStart = time.Unix(1400000000, 0).UTC()

// makeTrace generates the trace of the given kind. Seed n uses generator
// seeds 2n-1 (HTTP) and 2n (DNS), so seed 1 is the repository's default
// pair of traces.
func makeTrace(kind traceKind, seed int64, sc scale) []pcap.Packet {
	httpTrace := func() []pcap.Packet {
		c := gen.DefaultHTTPConfig()
		c.Seed, c.Sessions, c.Start = 2*seed-1, sc.Sessions, traceStart
		return gen.GenerateHTTP(c)
	}
	dnsTrace := func() []pcap.Packet {
		c := gen.DefaultDNSConfig()
		c.Seed, c.Transactions, c.Start = 2*seed, sc.Txns, traceStart
		return gen.GenerateDNS(c)
	}
	switch kind {
	case traceHTTP:
		return httpTrace()
	case traceDNS:
		return dnsTrace()
	}
	pkts := append(httpTrace(), dnsTrace()...)
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Time.Before(pkts[j].Time) })
	return pkts
}

// traceInfo describes a generated trace. The wire-level counts are the
// generator's ground truth as far as it can be read off the packets without
// any of the repository's parsers (see l4): they bound what the logs of a
// correct run may contain.
type traceInfo struct {
	Kind          traceKind `json:"kind"`
	Packets       int       `json:"packets"`
	Bytes         int64     `json:"bytes"`
	Flows         int       `json:"flows"`
	SizeQuartiles [3]int    `json:"packet_size_quartiles"`
	SpanNs        int64     `json:"trace_time_ns"`
	Digest        string    `json:"digest"`

	HTTPRequests  int   `json:"wire_http_requests"`
	HTTPReplies   int   `json:"wire_http_replies"`
	DNSQueries    int   `json:"wire_dns_queries"`
	DNSResponses  int   `json:"wire_dns_responses"`
	DNSTruncated  int   `json:"wire_dns_truncated"`
	TCPSegments   int   `json:"wire_tcp_data_segments"`
	TCPDataBytes  int64 `json:"wire_tcp_data_bytes"`
	UDP53Messages int   `json:"wire_udp53_messages"`
}

var httpMethodPrefixes = [][]byte{[]byte("GET /"), []byte("POST /"), []byte("HEAD /"), []byte("PUT /"), []byte("DELETE /")}

func describeTrace(kind traceKind, pkts []pcap.Packet) traceInfo {
	info := traceInfo{Kind: kind, Packets: len(pkts)}
	if len(pkts) == 0 {
		return info
	}
	h := sha256.New()
	sizes := make([]int, len(pkts))
	flows := map[flow.Key]struct{}{}
	var ts [8]byte
	for i, p := range pkts {
		binary.LittleEndian.PutUint64(ts[:], uint64(p.Time.UnixNano()))
		h.Write(ts[:])
		h.Write(p.Data)
		sizes[i] = len(p.Data)
		info.Bytes += int64(len(p.Data))
		if k, ok := flow.FromFrame(p.Data); ok {
			ck, _ := k.Canonical()
			flows[ck] = struct{}{}
		}
		proto, sport, dport, payload, ok := l4(p.Data)
		if !ok {
			continue
		}
		switch {
		case proto == 6 && len(payload) > 0:
			info.TCPSegments++
			info.TCPDataBytes += int64(len(payload))
			if sport == 80 && bytes.HasPrefix(payload, []byte("HTTP/1.1 ")) {
				info.HTTPReplies++
			}
			if dport == 80 {
				for _, m := range httpMethodPrefixes {
					if bytes.HasPrefix(payload, m) {
						info.HTTPRequests++
						break
					}
				}
			}
		case proto == 17 && (sport == 53 || dport == 53):
			info.UDP53Messages++
			if len(payload) < 12 {
				continue
			}
			flags := binary.BigEndian.Uint16(payload[2:4])
			switch {
			case sport == 53 && flags&0x8000 != 0:
				info.DNSResponses++
				if flags&0x0200 != 0 {
					info.DNSTruncated++
				}
			case dport == 53 && flags == 0x0100 && binary.BigEndian.Uint16(payload[4:6]) == 1:
				info.DNSQueries++
			}
		}
	}
	sort.Ints(sizes)
	info.SizeQuartiles = [3]int{sizes[len(sizes)/4], sizes[len(sizes)/2], sizes[len(sizes)*3/4]}
	info.Flows = len(flows)
	info.SpanNs = pkts[len(pkts)-1].Time.Sub(pkts[0].Time).Nanoseconds()
	info.Digest = hex.EncodeToString(h.Sum(nil)[:12])
	return info
}

// l4 reads the transport header of an Ethernet/IPv4 frame at fixed offsets.
// It is deliberately not internal/pkt/layers: the ground-truth counts and
// the vm-packet oracle must not depend on the decoder they check.
func l4(frame []byte) (proto uint8, sport, dport uint16, payload []byte, ok bool) {
	if len(frame) < 34 || frame[12] != 0x08 || frame[13] != 0x00 {
		return
	}
	ip := frame[14:]
	ihl := int(ip[0]&0x0f) * 4
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	if ihl < 20 || total < ihl || len(ip) < total {
		return
	}
	proto = ip[9]
	seg := ip[ihl:total]
	switch proto {
	case 6:
		if len(seg) < 20 {
			return
		}
		off := int(seg[12]>>4) * 4
		if off < 20 || off > len(seg) {
			return
		}
		return proto, binary.BigEndian.Uint16(seg[0:2]), binary.BigEndian.Uint16(seg[2:4]), seg[off:], true
	case 17:
		if len(seg) < 8 {
			return
		}
		return proto, binary.BigEndian.Uint16(seg[0:2]), binary.BigEndian.Uint16(seg[2:4]), seg[8:], true
	}
	return
}

// ipv4Addrs returns the frame's source and destination as runtime addr
// values, again at fixed offsets.
func ipv4Addrs(frame []byte) (src, dst values.Value, ok bool) {
	if len(frame) < 34 || frame[12] != 0x08 || frame[13] != 0x00 {
		return
	}
	var s, d [4]byte
	copy(s[:], frame[26:30])
	copy(d[:], frame[30:34])
	return values.AddrFrom4(s), values.AddrFrom4(d), true
}

// makeClassifier builds the seeded n-rule, 3-column classifier table
// (src net, dst net, dst port) the rule plane hosts. Its constants overlap
// the generators' address pools (clients 10.1-2.x, HTTP servers 172.16.x,
// resolvers 172.20.0.x), so lookups hit and near-miss real rules.
func makeClassifier(n int, seed int64) (*classifier.Classifier, error) {
	rng := rand.New(rand.NewSource(seed))
	netField := func() classifier.Field {
		switch rng.Intn(6) {
		case 0:
			return classifier.Wildcard{}
		case 1:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("10.%d.0.0/16", 1+rng.Intn(2)))}
		case 2:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("172.16.%d.0/24", 1+rng.Intn(40)))}
		case 3:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("172.20.0.%d/32", 1+rng.Intn(8)))}
		default:
			return classifier.NetField{Net: values.MustParseNet(fmt.Sprintf("10.%d.%d.0/24", 1+rng.Intn(2), 1+rng.Intn(120)))}
		}
	}
	portField := func() classifier.Field {
		switch rng.Intn(4) {
		case 0:
			return classifier.PortRangeField{Lo: 53, Hi: 53, Proto: values.ProtoUDP}
		case 1:
			lo := uint16(1 + rng.Intn(60000))
			return classifier.PortRangeField{Lo: lo, Hi: lo + uint16(rng.Intn(2000)), Proto: values.ProtoTCP}
		default:
			return classifier.Wildcard{}
		}
	}
	c := classifier.New(3)
	for i := 0; i < n; i++ {
		if err := c.Add([]classifier.Field{netField(), netField(), portField()}, values.Int(int64(i))); err != nil {
			return nil, fmt.Errorf("classifier rule %d: %w", i, err)
		}
	}
	c.Compile()
	return c, nil
}
