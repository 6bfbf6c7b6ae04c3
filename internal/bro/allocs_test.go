//go:build !race

package bro

import (
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/gen"
	"hilti/internal/pkt/layers"
	"hilti/internal/rt/values"
)

// TestCompiledHTTPAllocsPerPacket holds what the http-std-hilti path
// allocates — hand-written HTTP parser, compiled scripts — per packet of a
// generated trace, under a ceiling 10% above its count (3.79 on this
// trace). A count needs no clock: a change that boxes event arguments
// again, or converts the connection per event, shows here on any machine.
// It is skipped under -race, whose instrumentation allocates.
func TestCompiledHTTPAllocsPerPacket(t *testing.T) {
	const ceiling = 4.17
	cfg := gen.DefaultHTTPConfig()
	cfg.Sessions = 200
	pkts := gen.GenerateHTTP(cfg)
	e := mustEngine(t, Config{Parser: "standard", ScriptExec: "hilti",
		Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range pkts {
		e.SafeProcessPacket(pkts[i].Time.UnixNano(), pkts[i].Data)
	}
	e.Finish()
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / float64(len(pkts))
	t.Logf("%d packets, %.2f allocations per packet", len(pkts), per)
	if per > ceiling {
		t.Errorf("%.2f allocations per packet, ceiling %.2f", per, ceiling)
	}
}

// TestForOverTableAllocs: a for over a table snapshots its entries into
// one slice before the body runs, with no object per entry (71 objects
// over 64 entries when each key was boxed into an any).
func TestForOverTableAllocs(t *testing.T) {
	ip, _ := loadInterp(t, `
global seen: table[count] of count;
global sum: count = 0;

event fill(n: count) {
    seen[n] = n;
}

event walk() {
    sum = 0;
    for ( k in seen )
        sum += 1;
}
`)
	const n = 64
	for i := 0; i < n; i++ {
		ip.Dispatch("fill", CountVal(i))
	}
	ip.Dispatch("walk")
	if a := testing.AllocsPerRun(50, func() { ip.Dispatch("walk") }); a > 1 {
		t.Errorf("a for over %d entries allocates %v times, want only the snapshot", n, a)
	}
	if got := ip.Globals["sum"].(CountVal); got != n {
		t.Errorf("the loop ran %d times, want %d", got, n)
	}
}

// TestBinpacParkedBodyAllocs: a BinPAC++ HTTP parse parked in a request body
// resumes on a body-only segment — lent in place, hashed piece by piece,
// trimmed, parked again, settled — without allocating once the Exec's free
// pieces are warm. The segment is one buffer written again between calls,
// as a frame is.
func TestBinpacParkedBodyAllocs(t *testing.T) {
	e := mustEngine(t, Config{Parser: "binpac", ScriptExec: "interp", Scripts: []string{HTTPScript, FilesScript}, Quiet: true})
	head := "POST /up HTTP/1.1\r\nHost: h\r\nContent-Length: 1000000000\r\n\r\n"
	e.SafeProcessPacket(1, tcpDataFrame(cliAddr, srvAddr, 41000, 80, 1000, []byte(head)))
	var c *conn
	for _, c = range openConns(e) {
	}
	if e.flows.len() != 1 || c.origRun == nil || c.respRun != nil {
		t.Fatal("the request did not start exactly its own direction's parse")
	}
	seg := make([]byte, 1024)
	var fill byte
	deliver := func() {
		for i := range seg {
			fill++
			seg[i] = fill
		}
		e.binpacDeliver(c, true, seg)
	}
	deliver()
	if n := testing.AllocsPerRun(100, deliver); n != 0 {
		t.Fatalf("%v allocations per body segment, want 0", n)
	}
	if c.origDead || c.origRope.Len() != 0 {
		t.Fatalf("after the body segments: parse dead %v, rope holds %d bytes", c.origDead, c.origRope.Len())
	}
}

// TestTableAccessAllocs: a table probe builds its key in the table's own
// scratch and looks it up in place, so Get, Has, Delete and a Put on an
// existing key allocate nothing, for one index or several, of any of the
// key types scripts use. Only an inserting Put makes the key string (and
// copies the index list it keeps).
func TestTableAccessAllocs(t *testing.T) {
	idx := []Val{
		CountVal(7),
		StringVal("CHhAvVGS1DHFjwGM9"),
		AddrVal{A: values.AddrFrom4([4]byte{192, 168, 1, 10})},
		PortVal{Num: 53, Proto: values.ProtoUDP},
		EnumVal{Name: "DNS::A"},
	}
	keys := map[string][]Val{"several": idx}
	for _, k := range idx {
		keys[k.TypeName()] = []Val{k}
	}
	for name, key := range keys {
		for _, onRead := range []bool{false, true} {
			tbl := NewTable(false)
			tbl.ExpireInterval, tbl.ExpireOnRead = 60e9, onRead
			tbl.Put(1, key, CountVal(1))
			absent := append(slices.Clone(key[:len(key)-1]), CountVal(8))
			for op, fn := range map[string]func(){
				"Get":             func() { tbl.Get(2, key) },
				"Has":             func() { tbl.Has(2, key) },
				"Put (existing)":  func() { tbl.Put(2, key, CountVal(2)) },
				"Delete (absent)": func() { tbl.Delete(2, absent) },
			} {
				if n := testing.AllocsPerRun(100, fn); n != 0 {
					t.Errorf("%s key, read_expire %v: %s allocates %v times", name, onRead, op, n)
				}
			}
			// Deleting a present entry: fill the table, then count only
			// the deletes.
			dels := make([][]Val, 100)
			for i := range dels {
				dels[i] = append(slices.Clone(key), CountVal(i))
				tbl.Put(2, dels[i], nil)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, k := range dels {
				tbl.Delete(2, k)
			}
			runtime.ReadMemStats(&after)
			if got := after.Mallocs - before.Mallocs; got != 0 || tbl.Len() != 1 {
				t.Errorf("%s key, read_expire %v: %d deletes allocate %d times, leave %d entries", name, onRead, len(dels), got, tbl.Len())
			}
		}
	}
}

// TestConnOpenAllocatesNoKey: a connection's tables are keyed by its
// canonical flow key, held in the entry, so opening, finding, touching and
// dropping a UDP connection allocates nothing besides the entry its caller
// made. Keyed by the key's Wire form, each open allocated that string. The
// entry, the connection its payload, stays within the 416-byte size class.
func TestConnOpenAllocatesNoKey(t *testing.T) {
	if size := unsafe.Sizeof(connEntry{}); strconv.IntSize == 64 && size > 416 {
		t.Errorf("a connection's entry is %d bytes, want at most 416", size)
	}
	const runs = 1000
	ct := makeConnTable()
	ens := make([]connEntry, runs+1) // AllocsPerRun runs once more to warm up
	for i := range ens {
		key := flow.FromIPv4([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, uint16(1024+i), 53, layers.IPProtoUDP)
		ens[i] = connEntry{V: conn{key: key}}
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		en := &ens[i]
		i++
		ct.open(en, false)
		c := &en.V
		if ct.find(c.key.Reverse()) != c {
			t.Fatal("the connection just opened is not found by its reply's key")
		}
		ct.touch(c, int64(i))
		ct.drop(c)
	})
	if got != 0 {
		t.Errorf("a UDP connection's open, find, touch and drop: %v allocations, want 0", got)
	}
}
