package bro

import (
	"slices"
	"sync"
	"testing"

	"hilti/internal/binpac/grammars"
	"hilti/internal/hilti/ast"
	"hilti/internal/pkt/pcap"
)

// TestBinpacEnginesShareGrammars builds and runs BinPAC++ engines on
// parallel goroutines. They link one process-wide set of grammar modules —
// the same ASTs, regexp constants and struct definitions — so under -race
// this is the check that linking and parsing only read what is shared, and
// every engine must still write exactly the logs an engine alone writes.
func TestBinpacEnginesShareGrammars(t *testing.T) {
	for _, build := range []func() ([]*ast.Module, error){grammars.HTTPModules, grammars.DNSModules} {
		a, errA := build()
		b, errB := build()
		if errA != nil || errB != nil || !slices.Equal(a, b) {
			t.Fatalf("grammar modules are rebuilt per call: %v %v", errA, errB)
		}
	}
	runs := []struct {
		scripts []string
		streams []string
		pkts    []pcap.Packet
	}{
		{[]string{HTTPScript, FilesScript}, []string{"http", "files"}, smallHTTPTrace(t)},
		{[]string{DNSScript}, []string{"dns"}, smallDNSTrace(t)},
	}
	logs := func(r int) []string {
		e, err := NewEngine(Config{Parser: "binpac", ScriptExec: "interp", Scripts: runs[r].scripts, Quiet: true})
		if err != nil {
			t.Error(err)
			return nil
		}
		e.ProcessTrace(runs[r].pkts)
		var out []string
		for _, s := range runs[r].streams {
			out = append(out, e.Logs.Lines(s)...)
		}
		return out
	}
	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = logs(w % len(runs))
		}()
	}
	wg.Wait()
	// The lone engines run last: parsing on a cold process fills the shared
	// regexps' lazily built automata from all workers at once.
	want := [][]string{logs(0), logs(1)}
	for w := range workers {
		if r := w % len(runs); len(want[r]) == 0 || !slices.Equal(got[w], want[r]) {
			t.Errorf("engine %d: %d log lines differ from a lone engine's %d", w, len(got[w]), len(want[r]))
		}
	}
}
