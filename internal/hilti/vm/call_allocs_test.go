//go:build !race

package vm

import (
	"testing"

	"hilti/internal/rt/values"
)

// TestCallAllocs: calling the §6.2 filter by name allocates nothing of its
// own, exactly like CallFn on the resolved function. Call is a lookup plus
// CallFn; only a host function or builtin, which may keep its arguments,
// gets a copy of them, so the caller's argument slice stays on its stack.
func TestCallAllocs(t *testing.T) {
	mod := filterModule(t)
	pkt := values.BytesFrom(ipv4Frame([4]byte{10, 1, 9, 77}, [4]byte{10, 2, 0, 1}))
	for level := 0; level <= 2; level++ {
		ex := linkAt(t, level, mod)
		fn := ex.Prog.Fn("Filter::filter")
		var got values.Value
		var err error
		for _, c := range []struct {
			name string
			call func()
		}{
			{"Call", func() { got, err = ex.Call("Filter::filter", pkt) }},
			{"CallFn", func() { got, err = ex.CallFn(fn, pkt) }},
		} {
			n := testing.AllocsPerRun(100, c.call)
			if err != nil || !got.AsBool() {
				t.Fatalf("O%d %s = %v, %v; want a match", level, c.name, got, err)
			}
			if n != 0 {
				t.Errorf("O%d %s: %v allocs per call, want 0", level, c.name, n)
			}
		}
	}
}
