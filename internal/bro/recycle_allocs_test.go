//go:build !race && !hiltipoison

// The allocation counts of a recycled HTTP message: skipped under -race,
// whose instrumentation allocates, and under hiltipoison, where a released
// rope gives up its storage.

package bro

import (
	"testing"

	"hilti/internal/hilti/vm"
	"hilti/internal/rt/values"
)

// TestBinpacHTTPMessageRecycles: once an engine is warm, a keep-alive
// request and its reply, each delivered whole to its direction's parked
// parse, take nothing from the heap for the parse: the messages, the
// request line, the headers, their token views and vectors come from the
// Exec's free lists and go back when each message's parse returns. With the
// bro_http_* callbacks swapped for borrowing no-ops, the exchange allocates
// nothing; a reply with a body adds its digest's 4 (the SHA-1 state, its
// sum, and the hex string hash.final returns and the scratch it renders
// into). With the engine's own callbacks, what remains is glue and script:
// the event arguments' strings, the interpreter's records and log rows.
// Withdrawing the recycling (an ordinary host) shows what it saves.
func TestBinpacHTTPMessageRecycles(t *testing.T) {
	req := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nAccept: */*\r\n\r\n")
	for _, c := range []struct {
		reply         string
		parse, engine float64
	}{
		{"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 0\r\n\r\n", 0, 40},
		{"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello", 4, 50},
	} {
		rep := []byte(c.reply)
		count := func(hosts string) float64 {
			e := mustEngine(t, Config{Parser: "binpac", ScriptExec: "interp",
				Scripts: []string{HTTPScript, FilesScript}, Quiet: true, DiscardLogs: true})
			e.SafeProcessPacket(1, tcpDataFrame(cliAddr, srvAddr, 41000, 80, 1000, req))
			var conn *conn
			for _, conn = range openConns(e) {
			}
			switch hosts {
			case "no-op":
				for _, name := range []string{"bro_http_request", "bro_http_reply", "bro_http_header", "bro_http_body", "bro_http_message_done"} {
					e.ex.RegisterBorrowingHost(name, func(*vm.Exec, []values.Value) (values.Value, error) { return values.Nil, nil })
				}
				e.ex.RegisterBorrowingHost("bro_http_pick_body", func(_ *vm.Exec, args []values.Value) (values.Value, error) { return args[2], nil })
			case "withdrawn":
				e.ex.RegisterHost("bro_http_header", e.ex.HostFns["bro_http_header"])
			}
			exchange := func() {
				e.binpacDeliver(conn, true, req)
				e.binpacDeliver(conn, false, rep)
			}
			for range 5 {
				exchange()
			}
			n := testing.AllocsPerRun(100, exchange)
			if conn.origDead || conn.respDead {
				t.Fatalf("%s hosts: a parse ended", hosts)
			}
			return n
		}
		parse, engine, withdrawn := count("no-op"), count("engine"), count("withdrawn")
		if parse != c.parse || engine != c.engine {
			t.Errorf("%q: %v allocations per exchange with no-op hosts, %v with the engine's; want %v and %v",
				c.reply, parse, engine, c.parse, c.engine)
		}
		if withdrawn <= engine {
			t.Errorf("%q: %v allocations per exchange without recycling, %v with it", c.reply, withdrawn, engine)
		}
	}
}
