package bro

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hilti/internal/hilti/vm"
	"hilti/internal/pkt/pcap"
	"hilti/internal/rt/snapshot"
	"hilti/internal/rt/values"
)

// fieldScript declares one record type and two functions over it: mk
// builds one with `new`, and bump reads two fields and writes a third.
const fieldScript = `
type R: record {
    a: count;
    b: string;
    c: count;
};

function mk(a: count, b: string): R {
    return R($a=a, $b=b, $c=0);
}

function bump(r: R): count {
    r$c = r$a + |r$b|;
    return r$c + r$a;
}
`

// TestOneStructTypeThreeDefs: a value of one script record type is built
// three ways — by `new` in HILTI, by the host from the linked definition
// (as connStruct builds a connection), and by the snapshot decoder from the
// first — and a compiled function reads and
// writes the same fields of each, on the name path (O0) and on the index
// path (O1). Every struct carries the linked type's Def, so the index path
// never misses its guard; a struct of a look-alike Def takes the name path,
// counted, with the same results.
func TestOneStructTypeThreeDefs(t *testing.T) {
	s, err := ParseScript(fieldScript)
	if err != nil {
		t.Fatal(err)
	}
	for level := 0; level <= 1; level++ {
		mod, err := CompileScripts(s)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := vm.LinkWith(vm.Options{OptLevel: level}, mod)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := vm.NewExec(prog)
		if err != nil {
			t.Fatal(err)
		}
		def := mod.Types["R"].StructDef.Runtime()
		if dis := prog.Fn("BroScripts::bump").Disasm(); strings.Contains(dis, "_idx") != (level > 0) {
			t.Fatalf("O%d: bump's field accesses are not on the expected path:\n%s", level, dis)
		}

		// 1. new
		made, err := ex.Call("BroScripts::mk", values.Int(3), values.String("four"))
		if err != nil {
			t.Fatal(err)
		}
		// 2. the host, from the linked definition
		built := values.NewStruct(def)
		built.Set(0, values.Int(3))
		built.Set(1, values.String("four"))
		built.Set(2, values.Int(0))
		// 3. the snapshot decoder, resolving the type as a restored engine does
		var enc snapshot.Encoder
		enc.Value(made)
		e := &Engine{structs: map[string]*values.StructDef{"R": def}}
		restored := snapshot.NewRawDecoder(enc.Buffer(), snapshot.WithStructs(e.linkedStruct)).Value()
		// and a look-alike: the same fields under a Def of its own
		foreign := snapshot.NewRawDecoder(enc.Buffer()).Value()

		for _, tc := range []struct {
			name   string
			v      values.Value
			misses uint64
		}{
			{"new", made, 0}, {"host", values.StructVal(built), 0}, {"restored", restored, 0}, {"foreign", foreign, 5},
		} {
			st := tc.v.AsStruct()
			if (st.Def == def) != (tc.name != "foreign") {
				t.Fatalf("O%d %s: Def %p, linked %p", level, tc.name, st.Def, def)
			}
			before := ex.FieldGuardMisses()
			got, err := ex.Call("BroScripts::bump", tc.v)
			if err != nil || got.AsInt() != 10 {
				t.Fatalf("O%d %s: bump = %v, %v; want 10", level, tc.name, got, err)
			}
			if c, _ := st.Get(2); c.AsInt() != 7 {
				t.Errorf("O%d %s: field c = %v after bump, want 7", level, tc.name, values.Format(c))
			}
			want := tc.misses
			if level == 0 {
				want = 0 // the name path has no guard
			}
			if n := ex.FieldGuardMisses() - before; n != want {
				t.Errorf("O%d %s: %d guard misses, want %d", level, tc.name, n, want)
			}
		}
	}
}

// TestEngineFieldGuardNeverMisses: over the HTTP and DNS traces, with
// either parser and either script backend, every struct a field access on
// a typed operand meets carries the Def it was compiled against — also in
// engines restored from checkpoints taken along the way.
func TestEngineFieldGuardNeverMisses(t *testing.T) {
	traces := map[string][]pcap.Packet{"http": smallHTTPTrace(t), "dns": smallDNSTrace(t)}
	scripts := map[string][]string{"http": {HTTPScript, FilesScript}, "dns": {DNSScript}}
	for _, parser := range []string{"standard", "binpac"} {
		for _, backend := range []string{"interp", "hilti"} {
			for _, proto := range []string{"http", "dns"} {
				if parser == "standard" && backend == "interp" {
					continue // runs no HILTI
				}
				pkts := traces[proto]
				cfg := Config{Parser: parser, ScriptExec: backend, Scripts: scripts[proto], Quiet: true, DiscardLogs: true}
				name := fmt.Sprintf("%s/%s/%s", parser, backend, proto)
				e := mustEngine(t, cfg)
				if res := e.ex.Prog.Residue(); res.IndexFields == 0 || res.NameFields != 0 {
					t.Fatalf("%s: %d field accesses by index, %d by name", name, res.IndexFields, res.NameFields)
				}
				// A parse in flight cannot be checkpointed.
				restore := parser != "binpac" || proto != "http"
				cuts := []int{len(pkts) / 3, len(pkts)/2 + 1, 2 * len(pkts) / 3}
				var ckpts [][]byte
				at := 0
				for _, cut := range cuts {
					feed(e, pkts[at:cut])
					at = cut
					if restore {
						var buf bytes.Buffer
						if err := e.Checkpoint(&buf); err != nil {
							t.Fatalf("%s: checkpoint: %v", name, err)
						}
						ckpts = append(ckpts, buf.Bytes())
					}
				}
				feed(e, pkts[at:])
				if n := e.ex.FieldGuardMisses(); n != 0 {
					t.Errorf("%s: %d field guard misses", name, n)
				}
				for i, ck := range ckpts {
					r, err := RestoreEngine(cfg, bytes.NewReader(ck))
					if err != nil {
						t.Fatalf("%s: restore: %v", name, err)
					}
					feed(r, pkts[cuts[i]:])
					if n := r.ex.FieldGuardMisses(); n != 0 {
						t.Errorf("%s, restored at packet %d: %d field guard misses", name, cuts[i], n)
					}
				}
			}
		}
	}
}
