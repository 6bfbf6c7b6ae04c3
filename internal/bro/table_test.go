package bro

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"unsafe"
)

// scanTable is the reference TableVal: the implementation as it stood
// before the expiry queue, whose expire looks at every entry on every
// access. TestTableExpiryMatchesScan holds the queue to it step by step.
type scanTable struct {
	entries  map[string]*scanEntry
	order    []*scanEntry
	nextSeq  uint64
	unsorted bool

	ExpireInterval int64
	ExpireOnRead   bool
}

type scanEntry struct {
	key     []Val
	keyStr  string
	yield   Val
	touched int64
	seq     uint64
	deleted bool
}

func (t *scanTable) expire(now int64) {
	if t.ExpireInterval <= 0 {
		return
	}
	for k, e := range t.entries {
		if now-e.touched >= t.ExpireInterval {
			e.deleted = true
			delete(t.entries, k)
		}
	}
}

func (t *scanTable) Put(now int64, key []Val, yield Val) {
	t.expire(now)
	ks := KeyString(key)
	if e, ok := t.entries[ks]; ok {
		e.yield = yield
		e.touched = now
		return
	}
	e := &scanEntry{key: key, keyStr: ks, yield: yield, touched: now, seq: t.nextSeq}
	t.nextSeq++
	t.entries[ks] = e
	t.order = append(t.order, e)
}

func (t *scanTable) Get(now int64, key []Val) (Val, bool) {
	t.expire(now)
	e, ok := t.entries[KeyString(key)]
	if !ok {
		return nil, false
	}
	if t.ExpireOnRead {
		e.touched = now
	}
	return e.yield, true
}

func (t *scanTable) drop(ks string) {
	if e, ok := t.entries[ks]; ok {
		e.deleted = true
		delete(t.entries, ks)
	}
}

func (t *scanTable) install(en *scanEntry, adopt bool) {
	old, had := t.entries[en.keyStr]
	if had && (adopt || old.seq == en.seq) {
		old.key, old.yield, old.touched = en.key, en.yield, en.touched
		return
	}
	if had {
		old.deleted = true
	}
	if adopt {
		en.seq = t.nextSeq
		t.nextSeq++
	}
	if n := len(t.order); n > 0 && t.order[n-1].seq > en.seq {
		t.unsorted = true
	}
	t.entries[en.keyStr] = en
	t.order = append(t.order, en)
}

func (t *scanTable) settle() {
	if t.unsorted {
		sort.SliceStable(t.order, func(i, j int) bool { return t.order[i].seq < t.order[j].seq })
		t.unsorted = false
	}
}

// sameTable compares live keys in iteration order, yields, touched and
// seq, and checks the queue: exactly the live entries, linked both ways,
// ascending touched.
func sameTable(t *testing.T, step int, op string, got *TableVal, want *scanTable) {
	t.Helper()
	var live []*scanEntry
	for _, e := range want.order {
		if !e.deleted {
			live = append(live, e)
		}
	}
	i := 0
	got.Each(func(key []Val, yield Val) bool {
		if i < len(live) {
			w := live[i]
			e := got.tbl.Find(KeyString(key))
			if e == nil || KeyString(e.V.key) != w.keyStr || int64(e.LastUse) != w.touched || e.V.seq != w.seq || !Equal(yield, w.yield) {
				t.Fatalf("step %d (%s): entry %d is %q touched %d seq %d yield %v, scan has %q touched %d seq %d yield %v",
					step, op, i, KeyString(key), e.LastUse, e.V.seq, yield, w.keyStr, w.touched, w.seq, w.yield)
			}
		}
		i++
		return true
	})
	if i != len(live) || got.Len() != len(live) || got.nextSeq != want.nextSeq {
		t.Fatalf("step %d (%s): %d entries iterated, Len %d, nextSeq %d; scan has %d live, nextSeq %d",
			step, op, i, got.Len(), got.nextSeq, len(live), want.nextSeq)
	}
	// The queue as it stands, unsorted or not: Queued checks its links both
	// ways, that it holds only live entries, and its order unless flagged
	// unsorted (an unsorted queue is sorted before its head is next read).
	queue, err := got.tbl.Queued()
	if err != nil {
		t.Fatalf("step %d (%s): %v", step, op, err)
	}
	if len(queue) != len(live) {
		t.Fatalf("step %d (%s): queue threads %d entries, %d are live", step, op, len(queue), len(live))
	}
}

// tableAttrs are the expiry attributes the table ops run under.
var tableAttrs = []struct {
	name     string
	interval int64
	onRead   bool
}{{"create_expire", 60, false}, {"read_expire", 60, true}, {"no_expire", 0, false}}

// TestTableExpiryMatchesScan: the expiry queue must expire exactly what a
// full scan would, whatever the access pattern — including network time
// that runs backwards, restored and adopted entries with arbitrary clocks,
// and out-of-order replay batches.
func TestTableExpiryMatchesScan(t *testing.T) {
	for _, attr := range tableAttrs {
		t.Run(attr.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(attr.name))))
			runTableOps(t, attr.interval, attr.onRead, 6000, rng.Intn)
		})
	}
}

// FuzzTableExpiry runs TestTableExpiryMatchesScan's ops with the choices
// read from the input: its first byte picks the attributes, each later
// byte (three for a choice among more than 256) one choice.
func FuzzTableExpiry(f *testing.F) {
	for i, attr := range tableAttrs {
		data := make([]byte, 512)
		rand.New(rand.NewSource(int64(len(attr.name)))).Read(data)
		data[0] = byte(i)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		attr := tableAttrs[int(data[0])%len(tableAttrs)]
		data = data[1:]
		intn := func(n int) int {
			v, width := 0, 1
			if n > 256 {
				width = 3
			}
			for ; width > 0 && len(data) > 0; width-- {
				v, data = v<<8|int(data[0]), data[1:]
			}
			return v % n
		}
		runTableOps(t, attr.interval, attr.onRead, min(len(data)/3, 2000), intn)
	})
}

// runTableOps runs steps random table ops, choices drawn from intn,
// against a TableVal and a scanTable, comparing them after every step.
func runTableOps(t *testing.T, interval int64, onRead bool, steps int, intn func(n int) int) {
	got := NewTable(false)
	got.ExpireInterval, got.ExpireOnRead = interval, onRead
	want := &scanTable{entries: map[string]*scanEntry{}, ExpireInterval: interval, ExpireOnRead: onRead}
	key := func() []Val { return []Val{StringVal(fmt.Sprintf("k%d", intn(48)))} }
	installBoth := func(k []Val, touched int64, seq uint64, adopt bool) {
		y := CountVal(intn(1000))
		got.install(tableItem{key: k, yield: y, seq: seq}, touched, adopt)
		want.install(&scanEntry{key: k, keyStr: KeyString(k), yield: y, touched: touched, seq: seq}, adopt)
	}
	now := int64(1000)
	for step := 0; step < steps; step++ {
		// Mostly forwards, sometimes a burst, sometimes backwards.
		switch r := intn(20); {
		case r == 0:
			now -= int64(intn(90))
		case r == 1:
			now += int64(intn(200))
		case r < 12:
			now += int64(intn(4))
		}
		op := ""
		switch r := intn(100); {
		case r < 30:
			op = "Put"
			k, y := key(), CountVal(intn(1000))
			got.Put(now, k, y)
			want.Put(now, k, y)
		case r < 55:
			op = "Get"
			k := key()
			gy, gok := got.Get(now, k)
			wy, wok := want.Get(now, k)
			if gok != wok || !Equal(gy, wy) {
				t.Fatalf("step %d: Get = %v, %v; scan says %v, %v", step, gy, gok, wy, wok)
			}
		case r < 70:
			op = "Has"
			k := key()
			_, wok := want.Get(now, k)
			if gok := got.Has(now, k); gok != wok {
				t.Fatalf("step %d: Has = %v, scan says %v", step, gok, wok)
			}
		case r < 80:
			op = "Delete"
			k := key()
			got.Delete(now, k)
			want.drop(KeyString(k))
		case r < 87:
			op = "install(adopt)"
			installBoth(key(), now-int64(intn(100)), uint64(intn(1<<20)), true)
		case r < 95:
			// A replayed batch: in-place updates of live entries, and new
			// entries under fresh seqs arriving highest first.
			op = "install(replay)+settle"
			n := uint64(1 + intn(4))
			for i := n; i > 0; i-- {
				k := key()
				seq := want.nextSeq + i - 1
				if e := want.entries[KeyString(k)]; e != nil && intn(2) == 0 {
					seq = e.seq
				}
				installBoth(k, now-int64(intn(100)), seq, false)
			}
			got.nextSeq += n
			want.nextSeq += n
			got.settle()
			want.settle()
		default:
			op = "for"
			got.expire(now)
			want.expire(now)
		}
		sameTable(t, step, op, got, want)
	}
}

// TestTableAccessLooksAtQueueEndsOnly: with nothing stale at the head of
// the queue, an access must not look at the entries behind it. They are
// made stale in place here (without telling the queue), so whoever
// inspected them would expire them.
func TestTableAccessLooksAtQueueEndsOnly(t *testing.T) {
	const n = 10000
	tbl := NewTable(false)
	tbl.ExpireInterval, tbl.ExpireOnRead = 1000, true
	for i := 0; i < n; i++ {
		tbl.Put(int64(5000+i/100), []Val{StringVal(fmt.Sprintf("k%d", i))}, CountVal(i))
	}
	queue, err := tbl.tbl.Queued()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range queue[1 : len(queue)-1] {
		e.LastUse = 0
	}
	now := int64(queue[len(queue)-1].LastUse)
	probe := []Val{StringVal("k9999")} // the tail: refreshing it moves nothing past the others
	tbl.Put(now, probe, CountVal(1))
	tbl.Get(now, probe)
	tbl.Has(now, []Val{StringVal("absent")})
	tbl.Put(now+1, []Val{StringVal("new")}, CountVal(2))
	if tbl.Len() != n+1 {
		t.Fatalf("accesses expired %d entries that only a scan could have seen", n+1-tbl.Len())
	}
	if a := testing.AllocsPerRun(100, func() { tbl.Has(now+1, probe) }); a > 1 {
		t.Errorf("Has allocates %.0f objects per call, want at most the key string", a)
	}
}

// TestTableEntrySize: a script-table entry stays at most 112 bytes. Fields
// only script tables need (seq, labels) belong in tableItem, not in the
// header container.Table shares with every HILTI map element.
func TestTableEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(tableEntry{}); strconv.IntSize == 64 && size > 112 {
		t.Fatalf("a script-table entry is %d bytes, want at most 112", size)
	}
}
