package layers

import "testing"

// FuzzDecode drives every layer decoder over arbitrary bytes, both directly
// and chained the way the packet path composes them (Ethernet payload into
// IP, IP payload into TCP/UDP). Decoders must reject malformed input with an
// error — never panic or read out of bounds.
func FuzzDecode(f *testing.F) {
	// Seed with one well-formed frame per protocol plus truncation-prone shapes.
	tcp := EncodeTCP([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 40000, 80, 100, 0, TCPSyn, 65535, []byte("GET /"))
	ip := EncodeIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, IPProtoTCP, 64, 1, tcp)
	f.Add(EncodeEthernet([6]byte{1}, [6]byte{2}, EtherTypeIPv4, ip))
	udp := EncodeUDP([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 5353, 53, []byte("query"))
	f.Add(EncodeIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, IPProtoUDP, 64, 2, udp))
	f.Add([]byte{0x45})                // IPv4 version nibble, truncated
	f.Add([]byte{0x4F, 0, 0, 20})      // max IHL, length lies
	f.Add([]byte{0x60, 0, 0, 0, 0, 0}) // IPv6 version nibble, truncated
	f.Add(make([]byte, 14))            // zero ethertype
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if eth, err := DecodeEthernet(data); err == nil {
			if ip4, err := DecodeIPv4(eth.Payload); err == nil {
				DecodeTCP(ip4.Payload) //nolint:errcheck
				DecodeUDP(ip4.Payload) //nolint:errcheck
			}
			DecodeIPv6(eth.Payload) //nolint:errcheck
		}
		// Each decoder must also stand alone against raw input.
		DecodeIPv4(data) //nolint:errcheck
		DecodeIPv6(data) //nolint:errcheck
		DecodeTCP(data)  //nolint:errcheck
		DecodeUDP(data)  //nolint:errcheck
	})
}
