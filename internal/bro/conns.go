// A connection's life (DESIGN "Connection lifetime"): connTable alone
// opens, finds, touches, closes, expires, walks and encodes connections, on
// one container.Table queue per Bro timeout, each in last-use order.

package bro

import (
	"cmp"
	"fmt"
	"time"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/container"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/timer"
)

// Bro's tcp_inactivity_timeout, udp_inactivity_timeout and tcp_close_delay.
const (
	tcpInactivityTimeout = int64(5 * time.Minute)
	udpInactivityTimeout = int64(time.Minute)
	tcpCloseDelay        = int64(5 * time.Second)
)

// connEntry is an open connection's entry: the conn is its payload, so the
// two are one object.
type connEntry = container.Entry[flow.Key, conn]

type connTable struct {
	tcp, udp container.Table[flow.Key, conn]     // open connections by canonical key, in open (ctx) order
	closed   container.Table[flow.Key, struct{}] // closed TCP flows in close order, LastUse the close time
	ctxs     map[int64]*conn                     // the open connections
	nextCtx  int64
}

func makeConnTable() connTable {
	return connTable{tcp: container.MakeTable[flow.Key, conn](), udp: container.MakeTable[flow.Key, conn](),
		closed: container.MakeTable[flow.Key, struct{}](), ctxs: map[int64]*conn{}}
}

// table returns the open connections of k's protocol.
func (t *connTable) table(k flow.Key) *container.Table[flow.Key, conn] {
	if k.Proto == layers.IPProtoTCP {
		return &t.tcp
	}
	return &t.udp
}

// find returns the open connection of the flow of key, or nil.
func (t *connTable) find(key flow.Key) *conn {
	ck, _ := key.Canonical()
	if en := t.table(ck).Find(ck); en != nil {
		return &en.V
	}
	return nil
}

// lingers reports whether the closed TCP flow of canonical key ck lingers.
func (t *connTable) lingers(ck flow.Key) bool { return t.closed.Find(ck) != nil }

func (t *connTable) len() int { return len(t.ctxs) }

// open makes the connection of en, filled in, open, in place of any open
// one of its flow or ctx. A live one takes the next ctx and its place in
// the queue by en.LastUse; a restored one keeps its ctx and joins the
// queue's end, which its restore sorts once.
func (t *connTable) open(en *connEntry, restored bool) {
	c := &en.V
	if !restored {
		c.ctx = t.nextCtx
		t.nextCtx++
	}
	for _, old := range []*conn{t.find(c.key), t.ctxs[c.ctx]} {
		if old != nil {
			t.drop(old)
		}
	}
	c.en = en
	ck, _ := c.key.Canonical()
	tbl := t.table(ck)
	tbl.Insert(ck, en)
	tbl.Queue(en, restored)
	t.ctxs[c.ctx] = c
}

// touch records a packet of c at now: a change the next patching Rebase
// encodes, as it does every connection opened or dropped since the last.
func (t *connTable) touch(c *conn, now int64) {
	tbl := t.table(c.key)
	tbl.Touch(c.en, timer.Time(now), false)
	tbl.Mark(c.en)
}

// drop takes c off the open connections, if it is one, without teardown:
// its streams give back their reassembly budget and a parse it parked is
// abandoned. Closing, zapping and forgetting a connection all end here.
func (t *connTable) drop(c *conn) {
	if t.ctxs[c.ctx] != c {
		return
	}
	c.origStream.Discard()
	c.respStream.Discard()
	if c.origRun != nil {
		c.origRun.Abort()
	}
	if c.respRun != nil {
		c.respRun.Abort()
	}
	delete(t.ctxs, c.ctx)
	t.table(c.key).Drop(c.en)
}

// linger starts the closed TCP flow of canonical key k lingering at
// closedAt, last in close order; its entry keeps the key, not the conn.
func (t *connTable) linger(k flow.Key, closedAt int64, restored bool) {
	if old := t.closed.Find(k); old != nil {
		t.closed.Drop(old)
	}
	t.closed.Queue(t.closed.Add(k, timer.Time(closedAt), struct{}{}), restored)
}

// idle returns the open connection idle longest if it has been idle for
// its protocol's timeout at now, else nil; forget ends the linger of every
// flow closed tcpCloseDelay or more before now.
func (t *connTable) idle(now int64) *conn {
	var due *connEntry
	if en := t.tcp.Stalest(); en != nil && int64(en.LastUse) <= now-tcpInactivityTimeout {
		due = en
	}
	if en := t.udp.Stalest(); en != nil && int64(en.LastUse) <= now-udpInactivityTimeout && (due == nil || en.LastUse < due.LastUse) {
		due = en
	}
	if due == nil {
		return nil
	}
	return &due.V
}

func (t *connTable) forget(now int64) {
	for t.closed.PopDue(timer.Time(now-tcpCloseDelay)) != nil {
	}
}

// each calls fn for every open connection in open order; fn may close it.
func (t *connTable) each(fn func(c *conn)) {
	var tcp []*conn
	t.tcp.Walk(func(en *connEntry) bool { tcp = append(tcp, &en.V); return true })
	t.udp.Walk(func(en *connEntry) bool {
		for ; len(tcp) > 0 && tcp[0].ctx < en.V.ctx; tcp = tcp[1:] {
			fn(tcp[0])
		}
		fn(&en.V)
		return true
	})
	for _, c := range tcp {
		fn(c)
	}
}

// settle puts a restore's open connections back in open order.
func (t *connTable) settle() {
	byCtx := func(a, b *connEntry) int { return cmp.Compare(a.V.ctx, b.V.ctx) }
	t.tcp.SortOrder(byCtx)
	t.udp.SortOrder(byCtx)
}

// encodeClosed writes the linger section: the closed flows in close order.
func (t *connTable) encodeClosed(enc *snapshot.Encoder) {
	enc.U32(uint32(t.closed.Len()))
	t.closed.Walk(func(en *container.Entry[flow.Key, struct{}]) bool {
		enc.Bytes(en.Key().Wire())
		enc.I64(int64(en.LastUse))
		return true
	})
}

// decodeClosed reads the linger section, refusing a flow named twice or
// not canonically.
func (t *connTable) decodeClosed(dec *snapshot.Decoder) error {
	n := dec.Len(4 + flow.WireSize + 8)
	for i := 0; i < n && dec.Err() == nil; i++ {
		key, closedAt := decodeKey(dec), dec.I64()
		if ck, _ := key.Canonical(); dec.Err() == nil && (ck != key || t.lingers(key)) {
			return fmt.Errorf("bro: linger entry %d names flow %v twice or not canonically", i, key)
		}
		t.linger(key, closedAt, true)
	}
	return dec.Err()
}
