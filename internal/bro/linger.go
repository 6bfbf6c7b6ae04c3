// The closed-connection linger, Bro's tcp_close_delay: a TCP session's
// last packets — the ACK of the final FIN, a retransmitted FIN — arrive
// after closeConn has retired the connection. Without a memory of the
// close, each would open a fresh connection for the same flow, with a uid,
// an analyzer and a flow frame, that lives until Finish. The linger keeps
// the canonical key of every TCP flow closed within the last tcpCloseDelay
// of network time; while a key lingers, a packet for it with no payload
// and no SYN is counted (afterClose) and dropped. A SYN or payload opens a
// connection as it would without the linger, so port reuse and mid-stream
// pickup are unchanged.
//
// The linger is engine state: it decides what later packets do, so the
// state codec carries it (the linger section, state.go) and a snapshot cut
// inside a linger restores to the same decisions.

package bro

import (
	"time"

	"hilti/internal/pkt/flow"
)

// tcpCloseDelay is how long a closed TCP flow's key lingers, in network
// time: Bro's default tcp_close_delay.
const tcpCloseDelay = int64(5 * time.Second)

// lingerSet holds the lingering keys in close order. A key closed again
// while it lingers moves to the tail: only the queue entry at the position
// at names is current, so the set holds each key once and is the same
// whichever way it was built — by closes, or by a restore of its encoding.
// The zero value is empty and holds nothing until the first close.
type lingerSet struct {
	at   map[flow.Key]int // a lingering key's position in q, counted from the first ever queued
	q    []lingering      // close order; q[head:] is not expired yet
	head int
	base int // positions dropped from the front of q
}

type lingering struct {
	key      flow.Key // canonical
	closedAt int64
}

// add starts key's linger at closedAt, or restarts it.
func (l *lingerSet) add(key flow.Key, closedAt int64) {
	if l.at == nil {
		l.at = map[flow.Key]int{}
	}
	l.at[key] = l.base + len(l.q)
	l.q = append(l.q, lingering{key: key, closedAt: closedAt})
}

// has reports whether key lingers.
func (l *lingerSet) has(key flow.Key) bool {
	_, ok := l.at[key]
	return ok
}

// expire forgets, in close order, every key closed tcpCloseDelay or more
// before now. A key closed out of time order (network time stepped back)
// waits behind the keys closed before it.
func (l *lingerSet) expire(now int64) {
	cutoff := now - tcpCloseDelay
	for l.head < len(l.q) {
		g := &l.q[l.head]
		if l.current(l.head) {
			if g.closedAt > cutoff {
				break
			}
			delete(l.at, g.key)
		}
		l.head++
	}
	// Drop the expired front once it is all or half of the queue: amortized
	// O(1) a close.
	if l.head == len(l.q) || l.head > 32 && l.head*2 >= len(l.q) {
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q = l.q[:n]
		l.base += l.head
		l.head = 0
	}
}

// pending reports whether any key may still expire: the per-packet test
// in front of expire.
func (l *lingerSet) pending() bool { return l.head < len(l.q) }

// each calls fn for every lingering key in close order.
func (l *lingerSet) each(fn func(key flow.Key, closedAt int64)) {
	for i := l.head; i < len(l.q); i++ {
		if l.current(i) {
			fn(l.q[i].key, l.q[i].closedAt)
		}
	}
}

// current reports whether q[i] is its key's place in the queue, not one it
// left when closed again.
func (l *lingerSet) current(i int) bool {
	pos, ok := l.at[l.q[i].key]
	return ok && pos == l.base+i
}

// len returns the number of lingering keys.
func (l *lingerSet) len() int { return len(l.at) }
