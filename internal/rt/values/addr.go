// Address and subnet support. HILTI's addr type transparently covers both
// IPv4 and IPv6 (paper §3.2): internally every address is a 128-bit
// quantity, with IPv4 addresses stored in IPv4-mapped form (::ffff:a.b.c.d),
// so that comparisons, hashing, and classification treat both families
// uniformly while formatting and prefix arithmetic remain family-aware.

package values

import (
	"fmt"
	"strconv"
	"strings"
)

// v4Prefix is the high 96 bits of an IPv4-mapped IPv6 address.
const v4PrefixHi = uint64(0)
const v4PrefixLo = uint64(0xffff) << 32

// AddrFrom16 builds an addr value from a 16-byte network-order address.
func AddrFrom16(b [16]byte) Value {
	hi := be64(b[0:8])
	lo := be64(b[8:16])
	return Value{K: KindAddr, A: hi, B: lo}
}

// AddrFrom4 builds an addr value from a 4-byte IPv4 address.
func AddrFrom4(b [4]byte) Value {
	lo := v4PrefixLo | uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	return Value{K: KindAddr, A: v4PrefixHi, B: lo}
}

// AddrFromV4Uint builds an addr value from a host-order IPv4 quantity.
func AddrFromV4Uint(u uint32) Value {
	return Value{K: KindAddr, A: v4PrefixHi, B: v4PrefixLo | uint64(u)}
}

// AddrIsV4 reports whether the address is IPv4-mapped.
func (v Value) AddrIsV4() bool {
	return v.A == v4PrefixHi && v.B>>32 == 0xffff
}

// AddrV4Uint returns the IPv4 quantity of an IPv4-mapped address.
func (v Value) AddrV4Uint() uint32 { return uint32(v.B) }

// Addr16 returns the 16-byte network-order form of an address.
func (v Value) Addr16() [16]byte {
	var b [16]byte
	putBE64(b[0:8], v.A)
	putBE64(b[8:16], v.B)
	return b
}

// ParseAddr parses "10.0.0.1" or "2001:db8::1" into an addr value.
func ParseAddr(s string) (Value, error) {
	if strings.Contains(s, ":") {
		b, err := parseIPv6(s)
		if err != nil {
			return Nil, err
		}
		return AddrFrom16(b), nil
	}
	u, err := parseIPv4(s)
	if err != nil {
		return Nil, err
	}
	return AddrFromV4Uint(u), nil
}

// MustParseAddr is ParseAddr panicking on error (literals in tests/examples).
func MustParseAddr(s string) Value {
	v, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return v
}

func parseIPv4(s string) (uint32, error) {
	var u uint32
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("invalid IPv4 address %q", s)
	}
	for _, p := range parts {
		n, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("invalid IPv4 address %q", s)
		}
		u = u<<8 | uint32(n)
	}
	return u, nil
}

func parseIPv6(s string) ([16]byte, error) {
	var out [16]byte
	// Split off an embedded IPv4 tail if present.
	var v4Tail []string
	if i := strings.LastIndex(s, ":"); i >= 0 && strings.Contains(s[i+1:], ".") {
		v4Tail = strings.Split(s[i+1:], ".")
		if len(v4Tail) != 4 {
			return out, fmt.Errorf("invalid IPv6 address %q", s)
		}
		s = s[:i] + ":0:0" // placeholder two groups
	}
	var head, tail []uint16
	segs := strings.Split(s, "::")
	if len(segs) > 2 {
		return out, fmt.Errorf("invalid IPv6 address %q", s)
	}
	parseGroups := func(part string) ([]uint16, error) {
		if part == "" {
			return nil, nil
		}
		var gs []uint16
		for _, g := range strings.Split(part, ":") {
			n, err := strconv.ParseUint(g, 16, 16)
			if err != nil {
				return nil, fmt.Errorf("invalid IPv6 group %q", g)
			}
			gs = append(gs, uint16(n))
		}
		return gs, nil
	}
	var err error
	if head, err = parseGroups(segs[0]); err != nil {
		return out, err
	}
	if len(segs) == 2 {
		if tail, err = parseGroups(segs[1]); err != nil {
			return out, err
		}
	} else if len(head) != 8 {
		return out, fmt.Errorf("invalid IPv6 address %q", s)
	}
	if len(head)+len(tail) > 8 {
		return out, fmt.Errorf("invalid IPv6 address %q", s)
	}
	groups := make([]uint16, 8)
	copy(groups, head)
	copy(groups[8-len(tail):], tail)
	for i, g := range groups {
		out[2*i] = byte(g >> 8)
		out[2*i+1] = byte(g)
	}
	if v4Tail != nil {
		for i, p := range v4Tail {
			n, err := strconv.ParseUint(p, 10, 8)
			if err != nil {
				return out, fmt.Errorf("invalid IPv4 tail in %q", s)
			}
			out[12+i] = byte(n)
		}
	}
	return out, nil
}

// AppendAddr appends Format(v) of an address to dst; it allocates nothing
// beyond growing dst.
func AppendAddr(dst []byte, v Value) []byte {
	if !v.AddrIsV4() {
		return appendV6(dst, v.A, v.B)
	}
	return appendV4(dst, v.AddrV4Uint())
}

// appendV4 appends a dotted quad. It and appendV6 are AppendAddr's cases
// apart from AppendAddr: were formatAddr to call into a function that calls
// them back, escape analysis would move formatAddr's stack buffer to the
// heap.
func appendV4(dst []byte, u uint32) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		dst = strconv.AppendUint(dst, uint64(byte(u>>shift)), 10)
		if shift > 0 {
			dst = append(dst, '.')
		}
	}
	return dst
}

// appendV6 appends the address of the 128 bits hi:lo as eight hex groups,
// the first longest run of two or more zero groups written "::".
func appendV6(dst []byte, hi, lo uint64) []byte {
	group := func(i int) uint64 {
		if i < 4 {
			return hi >> (48 - 16*i) & 0xffff
		}
		return lo >> (48 - 16*(i-4)) & 0xffff
	}
	bestStart, bestLen := -1, 1 // a run must beat one group
	for i, run := 0, 0; i < 8; i++ {
		if group(i) != 0 {
			run = 0
			continue
		}
		if run++; run > bestLen {
			bestStart, bestLen = i-run+1, run
		}
	}
	for i := 0; i < 8; i++ {
		if i == bestStart {
			dst = append(dst, "::"...)
			i += bestLen - 1
			continue
		}
		if i > 0 && i != bestStart+bestLen {
			dst = append(dst, ':')
		}
		dst = strconv.AppendUint(dst, group(i), 16)
	}
	return dst
}

// formatAddr renders an address HILTI-style: dotted quad for IPv4-mapped,
// compressed hex groups otherwise.
func formatAddr(v Value) string {
	var buf [len("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff")]byte
	if v.AddrIsV4() {
		return string(appendV4(buf[:0], v.AddrV4Uint()))
	}
	return string(appendV6(buf[:0], v.A, v.B))
}

// NetVal builds a subnet value from an address and a prefix length. For
// IPv4-mapped addresses the length is the IPv4 length (0..32); internally it
// is widened to the 128-bit space.
func NetVal(addr Value, prefixLen int) Value {
	width := prefixLen
	if addr.AddrIsV4() {
		width = prefixLen + 96
	}
	hi, lo := maskAddr(addr.A, addr.B, width)
	return Value{K: KindNet, A: hi, B: lo, O: width}
}

// ParseNet parses "10.0.5.0/24" or "2001:db8::/32" into a net value.
func ParseNet(s string) (Value, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Nil, fmt.Errorf("invalid network %q: no prefix length", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Nil, err
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return Nil, fmt.Errorf("invalid prefix length in %q", s)
	}
	max := 128
	if a.AddrIsV4() {
		max = 32
	}
	if n < 0 || n > max {
		return Nil, fmt.Errorf("prefix length out of range in %q", s)
	}
	return NetVal(a, n), nil
}

// MustParseNet is ParseNet panicking on error.
func MustParseNet(s string) Value {
	v, err := ParseNet(s)
	if err != nil {
		panic(err)
	}
	return v
}

// NetPrefixLen returns the 128-bit-space prefix length of a net value.
func (v Value) NetPrefixLen() int {
	n, _ := v.O.(int)
	return n
}

// NetContains reports whether addr lies within the subnet v.
func (v Value) NetContains(addr Value) bool {
	hi, lo := maskAddr(addr.A, addr.B, v.NetPrefixLen())
	return hi == v.A && lo == v.B
}

// NetFamilyLen returns the family-relative prefix length (IPv4: 0..32).
func (v Value) NetFamilyLen() int {
	n := v.NetPrefixLen()
	if v.netIsV4() && n >= 96 {
		return n - 96
	}
	return n
}

func (v Value) netIsV4() bool {
	return v.A == v4PrefixHi && v.B>>32 == 0xffff
}

func formatNet(v Value) string {
	addr := Value{K: KindAddr, A: v.A, B: v.B}
	return formatAddr(addr) + "/" + strconv.Itoa(v.NetFamilyLen())
}

// maskAddr zeroes all bits below the leading width bits of (hi, lo).
func maskAddr(hi, lo uint64, width int) (uint64, uint64) {
	switch {
	case width <= 0:
		return 0, 0
	case width >= 128:
		return hi, lo
	case width <= 64:
		return hi &^ (^uint64(0) >> uint(width)), 0
	default:
		return hi, lo &^ (^uint64(0) >> uint(width-64))
	}
}

func be64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

func putBE64(b []byte, u uint64) {
	b[0] = byte(u >> 56)
	b[1] = byte(u >> 48)
	b[2] = byte(u >> 40)
	b[3] = byte(u >> 32)
	b[4] = byte(u >> 24)
	b[5] = byte(u >> 16)
	b[6] = byte(u >> 8)
	b[7] = byte(u)
}
