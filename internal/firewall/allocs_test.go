//go:build !race

package firewall

import (
	"testing"
	"time"

	"hilti/internal/rt/values"
)

// TestFirewallMatchAllocs: deciding a packet allocates only the state the
// firewall keeps. A packet of a flow already in the dynamic set, a denied
// packet and a packet no rule matches (default deny, through the caught
// classifier exception) allocate nothing; a newly allowed flow allocates
// exactly its two dynamic entries.
func TestFirewallMatchAllocs(t *testing.T) {
	fw, err := New(mustRules(t), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	// Distinct flows for the newly allowed case, built beforehand:
	// 10.3.2.1 may reach 10.1/16 (the paper's first rule).
	client := values.MustParseAddr("10.3.2.1")
	servers := make([]values.Value, runs+2) // AllocsPerRun adds a warm-up call
	for i := range servers {
		servers[i] = values.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
	}
	ts := int64(1e9)
	match := func(src, dst values.Value, want bool) {
		ts += 1e6
		got, err := fw.Match(ts, src, dst)
		if err != nil || got != want {
			t.Fatalf("%v -> %v = %v, %v; want %v", values.Format(src), values.Format(dst), got, err, want)
		}
	}
	match(client, servers[0], true) // warm up: frames, scratch, timer heap

	for _, tc := range []struct {
		name     string
		src, dst string
		want     bool
	}{
		{"flow in dyn", "10.1.0.0", "10.3.2.1", true}, // the reverse of the warm-up flow
		{"denied", "10.12.5.5", "10.1.44.2", false},
		{"no rule matches", "192.0.2.1", "10.1.0.1", false},
	} {
		src, dst := values.MustParseAddr(tc.src), values.MustParseAddr(tc.dst)
		if n := testing.AllocsPerRun(runs, func() { match(src, dst, tc.want) }); n != 0 {
			t.Errorf("%s: %v allocs per packet, want 0", tc.name, n)
		}
	}

	next := 1
	n := testing.AllocsPerRun(runs, func() {
		match(client, servers[next], true)
		next++
	})
	// A new flow inserts itself and its reverse into dyn. Each insert keeps
	// three objects: the tuple key (its elements inline), the entry and the
	// entry's encoded key. Expiry adds none: the entry joins dyn's queue,
	// whose one timer exists already.
	const perInsert = 3
	if n != 2*perInsert {
		t.Errorf("newly allowed flow: %v allocs per packet, want %d", n, 2*perInsert)
	}
}
