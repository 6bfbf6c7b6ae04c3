// The hand-written DNS parser (the standard-analyzer baseline). Like
// Bro's, it extracts only the first character-string of TXT records —
// the semantic difference from BinPAC++ the paper calls out in §6.4 —
// and validates messages strictly enough to reject most non-DNS traffic
// on port 53 early.

package analyzers

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DNSMessage is a parsed message.
type DNSMessage struct {
	ID       uint16
	Response bool
	Rcode    int
	Query    string
	QType    int
	Answers  []string // rendered answer values
	TTLs     []int64  // seconds
}

// ParseDNS parses one UDP DNS payload.
func ParseDNS(data []byte) (*DNSMessage, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("dns: short header")
	}
	m := &DNSMessage{ID: binary.BigEndian.Uint16(data[0:2])}
	flags := binary.BigEndian.Uint16(data[2:4])
	m.Response = flags&0x8000 != 0
	m.Rcode = int(flags & 0x000F)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	// Sanity checks that reject most port-53 crud early — the standard
	// parser "aborts more easily" than BinPAC++ (paper §6.4).
	if qd > 16 || an > 64 {
		return nil, fmt.Errorf("dns: implausible counts qd=%d an=%d", qd, an)
	}
	if opcode := (flags >> 11) & 0xF; opcode > 5 {
		return nil, fmt.Errorf("dns: bad opcode %d", opcode)
	}
	off := 12
	for i := 0; i < qd; i++ {
		name, n, err := parseName(data, off)
		if err != nil {
			return nil, err
		}
		off += n
		if off+4 > len(data) {
			return nil, fmt.Errorf("dns: truncated question")
		}
		if i == 0 {
			m.Query = name
			m.QType = int(binary.BigEndian.Uint16(data[off : off+2]))
		}
		off += 4
	}
	for i := 0; i < an; i++ {
		name, n, err := parseName(data, off)
		if err != nil {
			return nil, err
		}
		_ = name
		off += n
		if off+10 > len(data) {
			return nil, fmt.Errorf("dns: truncated RR")
		}
		rtype := int(binary.BigEndian.Uint16(data[off : off+2]))
		ttl := int64(binary.BigEndian.Uint32(data[off+4 : off+8]))
		rdlen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
		off += 10
		if off+rdlen > len(data) {
			return nil, fmt.Errorf("dns: truncated rdata")
		}
		rdata := data[off : off+rdlen]
		val, err := renderRData(data, off, rtype, rdata)
		if err != nil {
			return nil, err
		}
		off += rdlen
		m.Answers = append(m.Answers, val)
		m.TTLs = append(m.TTLs, ttl)
	}
	return m, nil
}

func renderRData(msg []byte, off int, rtype int, rdata []byte) (string, error) {
	switch rtype {
	case 1: // A
		if len(rdata) != 4 {
			return "", fmt.Errorf("dns: bad A rdata")
		}
		return fmt.Sprintf("%d.%d.%d.%d", rdata[0], rdata[1], rdata[2], rdata[3]), nil
	case 28: // AAAA
		if len(rdata) != 16 {
			return "", fmt.Errorf("dns: bad AAAA rdata")
		}
		var parts []string
		for i := 0; i < 16; i += 2 {
			parts = append(parts, fmt.Sprintf("%x", uint16(rdata[i])<<8|uint16(rdata[i+1])))
		}
		return compressV6(parts), nil
	case 2, 5, 12: // NS, CNAME, PTR
		name, _, err := parseName(msg, off)
		return name, err
	case 15: // MX: skip the preference, render the exchanger
		if len(rdata) < 3 {
			return "", fmt.Errorf("dns: bad MX rdata")
		}
		name, _, err := parseName(msg, off+2)
		return name, err
	case 16: // TXT: only the FIRST character-string (Bro's behavior).
		if len(rdata) < 1 {
			return "", nil
		}
		n := int(rdata[0])
		if 1+n > len(rdata) {
			return "", fmt.Errorf("dns: bad TXT rdata")
		}
		return string(rdata[1 : 1+n]), nil
	default:
		return fmt.Sprintf("\\x%x", rdata), nil
	}
}

// parseName decodes a possibly compressed domain name at off, returning
// the dotted name and the wire length consumed at the original position.
func parseName(data []byte, off int) (string, int, error) {
	var labels []string
	consumed := 0
	jumped := false
	jumps := 0
	pos := off
	for {
		if pos >= len(data) {
			return "", 0, fmt.Errorf("dns: name runs past message")
		}
		l := int(data[pos])
		switch {
		case l == 0:
			if !jumped {
				consumed = pos + 1 - off
			}
			return strings.Join(labels, "."), consumed, nil
		case l >= 0xC0:
			if pos+1 >= len(data) {
				return "", 0, fmt.Errorf("dns: truncated pointer")
			}
			if !jumped {
				consumed = pos + 2 - off
				jumped = true
			}
			jumps++
			if jumps > 16 {
				return "", 0, fmt.Errorf("dns: pointer loop")
			}
			pos = (l&0x3F)<<8 | int(data[pos+1])
		default:
			if pos+1+l > len(data) {
				return "", 0, fmt.Errorf("dns: truncated label")
			}
			labels = append(labels, string(data[pos+1:pos+1+l]))
			pos += 1 + l
		}
	}
}

// compressV6 renders IPv6 groups with :: compression, matching the HILTI
// runtime's formatting so both parser paths log identically.
func compressV6(groups []string) string {
	bestStart, bestLen := -1, 0
	for i := 0; i < len(groups); {
		if groups[i] != "0" {
			i++
			continue
		}
		j := i
		for j < len(groups) && groups[j] == "0" {
			j++
		}
		if j-i > bestLen {
			bestStart, bestLen = i, j-i
		}
		i = j
	}
	if bestLen < 2 {
		return strings.Join(groups, ":")
	}
	head := strings.Join(groups[:bestStart], ":")
	tail := strings.Join(groups[bestStart+bestLen:], ":")
	return head + "::" + tail
}
