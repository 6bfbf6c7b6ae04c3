package regexp

import (
	gore "regexp"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hilti/internal/rt/hbytes"
)

func mustMatch(t *testing.T, re *Regexp, input string, wantID int, wantLen int64) {
	t.Helper()
	id, n := re.MatchString(input)
	if id != wantID || n != wantLen {
		t.Fatalf("Match(%q) = (%d, %d), want (%d, %d)", input, id, n, wantID, wantLen)
	}
}

func TestLiteral(t *testing.T) {
	re := MustCompile("GET")
	mustMatch(t, re, "GET /", 1, 3)
	mustMatch(t, re, "GE", 0, 0)
	mustMatch(t, re, "POST", 0, 0)
}

func TestLongestMatch(t *testing.T) {
	re := MustCompile("a+")
	mustMatch(t, re, "aaab", 1, 3)
	mustMatch(t, re, "b", 0, 0)
}

func TestPaperHTTPTokens(t *testing.T) {
	// The BinPAC++ grammar tokens from Figure 6(a).
	token := MustCompile(`[^ \t\r\n]+`)
	mustMatch(t, token, "GET /x", 1, 3)
	newline := MustCompile(`\r?\n`)
	mustMatch(t, newline, "\r\nrest", 1, 2)
	mustMatch(t, newline, "\nrest", 1, 1)
	ws := MustCompile(`[ \t]+`)
	mustMatch(t, ws, "  \tx", 1, 3)
	version := MustCompile(`[0-9]+\.[0-9]+`)
	mustMatch(t, version, "1.1\r\n", 1, 3)
	mustMatch(t, version, "10.25 ", 1, 5)
	httpLit := MustCompile(`HTTP/`)
	mustMatch(t, httpLit, "HTTP/1.1", 1, 5)
}

func TestPaperSSHTokens(t *testing.T) {
	// Figure 7(a): SSH banner grammar tokens.
	magic := MustCompile(`SSH-`)
	mustMatch(t, magic, "SSH-2.0-OpenSSH", 1, 4)
	version := MustCompile(`[^-]*`)
	mustMatch(t, version, "2.0-OpenSSH", 1, 3)
	software := MustCompile(`[^\r\n]*`)
	mustMatch(t, software, "OpenSSH_3.9p1\r\n", 1, 13)
}

func TestAlternation(t *testing.T) {
	re := MustCompile("cat|cattle|dog")
	mustMatch(t, re, "cattle!", 1, 6) // longest, not first alternative
	mustMatch(t, re, "dog", 1, 3)
}

func TestSetMatchingIDs(t *testing.T) {
	re := MustCompile("GET", "POST", "HEAD")
	if id, _ := re.MatchString("POST /"); id != 2 {
		t.Fatalf("id = %d", id)
	}
	if id, _ := re.MatchString("HEAD /"); id != 3 {
		t.Fatalf("id = %d", id)
	}
	if id, _ := re.MatchString("PUT /"); id != 0 {
		t.Fatalf("id = %d", id)
	}
}

func TestSetLowestIDWins(t *testing.T) {
	re := MustCompile("[a-z]+", "abc")
	id, n := re.MatchString("abc")
	if id != 1 || n != 3 {
		t.Fatalf("got (%d, %d)", id, n)
	}
}

func TestCountedRepeat(t *testing.T) {
	re := MustCompile("a{2,4}")
	mustMatch(t, re, "a", 0, 0)
	mustMatch(t, re, "aa", 1, 2)
	mustMatch(t, re, "aaaaa", 1, 4)
	re2 := MustCompile("x{3}")
	mustMatch(t, re2, "xxxx", 1, 3)
	re3 := MustCompile("y{2,}")
	mustMatch(t, re3, "yyyyy", 1, 5)
}

func TestClasses(t *testing.T) {
	re := MustCompile(`\d+\.\d+\.\d+\.\d+`)
	mustMatch(t, re, "10.1.2.3 x", 1, 8)
	re2 := MustCompile(`[A-Fa-f0-9]+`)
	mustMatch(t, re2, "dEaDbEeF!", 1, 8)
	re3 := MustCompile(`[^:]+:`)
	mustMatch(t, re3, "Host: x", 1, 5)
	re4 := MustCompile(`[\]\[]`) // escaped brackets in class
	mustMatch(t, re4, "]", 1, 1)
}

func TestDotAndEscapes(t *testing.T) {
	re := MustCompile(`a.c`)
	mustMatch(t, re, "abc", 1, 3)
	mustMatch(t, re, "a\nc", 1, 3) // byte-oriented: . matches any byte
	re2 := MustCompile(`\x41\t`)
	mustMatch(t, re2, "A\tx", 1, 2)
}

func TestEmptyMatch(t *testing.T) {
	re := MustCompile("a*")
	mustMatch(t, re, "bbb", 1, 0)
	mustMatch(t, re, "", 1, 0)
}

func TestParseErrors(t *testing.T) {
	for _, p := range []string{"(", "a)", "[abc", "a{", "a{2,1}", "*a", `\x1`} {
		if _, err := Compile(p); err == nil {
			t.Errorf("pattern %q should not compile", p)
		}
	}
}

func TestFind(t *testing.T) {
	re := MustCompile("needle")
	s, e, id := re.Find([]byte("hay needle hay"))
	if id != 1 || s != 4 || e != 10 {
		t.Fatalf("find = (%d, %d, %d)", s, e, id)
	}
	if _, _, id := re.Find([]byte("haystack")); id != 0 {
		t.Fatalf("found in absence: %d", id)
	}
}

func TestIncrementalFeed(t *testing.T) {
	re := MustCompile(`[0-9]+\.[0-9]+`)
	ms := re.NewState()
	if !ms.Feed([]byte("12")) {
		t.Fatal("should stay alive")
	}
	if !ms.Feed([]byte(".")) {
		t.Fatal("should stay alive")
	}
	if !ms.Feed([]byte("34")) {
		t.Fatal("should stay alive")
	}
	ms.Feed([]byte(" ")) // dies here
	id, n := ms.Result()
	if id != 1 || n != 5 {
		t.Fatalf("result = (%d, %d)", id, n)
	}
}

func TestIncrementalEqualsOneShot(t *testing.T) {
	re := MustCompile(`[^ ]+`)
	input := []byte("hello world")
	for split := 0; split <= len(input); split++ {
		ms := re.NewState()
		ms.Feed(input[:split])
		ms.Feed(input[split:])
		id, n := ms.Result()
		wid, wn := re.Match(input)
		if id != wid || n != wn {
			t.Fatalf("split %d: (%d,%d) != (%d,%d)", split, id, n, wid, wn)
		}
	}
}

func TestMatchIterWouldBlock(t *testing.T) {
	re := MustCompile(`[^\r\n]*\r\n`)
	b := hbytes.New()
	b.Append([]byte("GET / HT"))
	ms := re.NewState()
	_, resume, err := ms.FinishIter(b.Begin())
	if err != hbytes.ErrWouldBlock {
		t.Fatalf("want would-block, got %v", err)
	}
	b.Append([]byte("TP/1.1\r\n"))
	id, end, err := ms.FinishIter(resume)
	if err != nil || id != 1 {
		t.Fatalf("resumed match: id=%d err=%v", id, err)
	}
	if end.Offset() != 16 {
		t.Fatalf("end offset = %d", end.Offset())
	}
}

func TestMatchIterFrozen(t *testing.T) {
	re := MustCompile(`abc`)
	b := hbytes.NewFromString("ab")
	b.Freeze()
	id, _, err := re.MatchIter(b.Begin())
	if err != nil || id != 0 {
		t.Fatalf("id=%d err=%v", id, err)
	}
}

// Property: our engine agrees with Go's regexp for anchored longest
// matching of a fixed pattern over random inputs. Go's regexp is
// leftmost-first, so we restrict to patterns where the two coincide.
func TestQuickAgainstStdlib(t *testing.T) {
	pattern := `[a-c]+x?`
	re := MustCompile(pattern)
	std := gore.MustCompile(`^(?:` + pattern + `)`)
	f := func(raw []byte) bool {
		// Map bytes into a small alphabet to hit the pattern often.
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = "abcxy"[int(b)%5]
		}
		id, n := re.Match(data)
		loc := std.FindIndex(data)
		if loc == nil {
			return id == 0 || n == 0
		}
		return id == 1 && int(n) == loc[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: feeding in arbitrary chunkings never changes the result.
func TestQuickChunkingInvariance(t *testing.T) {
	re := MustCompile(`[0-9]+(\.[0-9]+)?`, `[a-z]+`)
	f := func(raw []byte, cut uint8) bool {
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = "0123456789abc. "[int(b)%15]
		}
		wid, wn := re.Match(data)
		k := int(cut)
		if len(data) > 0 {
			k = k % (len(data) + 1)
		} else {
			k = 0
		}
		ms := re.NewState()
		ms.Feed(data[:k])
		ms.Feed(data[k:])
		id, n := ms.Result()
		return id == wid && n == wn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatchToken(b *testing.B) {
	re := MustCompile(`[^ \t\r\n]+`)
	data := []byte("GET /index.html HTTP/1.1\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re.Match(data)
	}
}

func BenchmarkMatchSet(b *testing.B) {
	re := MustCompile("GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS")
	data := []byte("DELETE /resource HTTP/1.1\r\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re.Match(data)
	}
}

// ropeOf builds an unfrozen rope holding data cut at the given offsets.
func ropeOf(data []byte, cuts ...int) *hbytes.Bytes {
	b := hbytes.New()
	prev := 0
	for _, c := range append(cuts, len(data)) {
		b.Append(data[prev:c])
		prev = c
	}
	return b
}

// A token match over a rope cut once, twice and three times equals the
// match over the flat bytes, wherever the cuts fall — including when the
// rope holds bytes before the cursor and long after the token.
func TestMatchIterAcrossChunks(t *testing.T) {
	re := MustCompile(`[^ \t\r\n]+`, `[ \t]+`)
	data := []byte("xx/index.html   HTTP/1.1\r\n" + strings.Repeat("tail ", 40))
	const from = 2
	wid, wn := re.Match(data[from:])
	n := 24 // cuts beyond the tokens exercise nothing new
	for i := 0; i <= n; i++ {
		for j := i; j <= n; j++ {
			for k := j; k <= n; k += 5 {
				b := ropeOf(data, i, j, k)
				id, end, err := re.MatchIter(b.At(from))
				if err != nil || id != wid || end.Offset() != from+wn {
					t.Fatalf("cuts %d/%d/%d: (%d, %d, %v), flat (%d, %d)", i, j, k, id, end.Offset(), err, wid, from+wn)
				}
			}
		}
	}
}

// A match that ran out of input mid-token continues from there: the bytes
// before the resume point are not fed again.
func TestFinishIterResumesMidToken(t *testing.T) {
	re := MustCompile(`[a-z]+;`)
	b := ropeOf([]byte("abc"), 1, 2)
	ms := re.NewState()
	_, resume, err := ms.FinishIter(b.Begin())
	if err != hbytes.ErrWouldBlock || resume.Offset() != 3 || ms.Consumed() != 3 {
		t.Fatalf("first leg: resume %d consumed %d err %v", resume.Offset(), ms.Consumed(), err)
	}
	b.Append([]byte("d"))
	b.Append([]byte("e;f"))
	id, end, err := ms.FinishIter(resume)
	if err != nil || id != 1 || end.Offset() != 6 || ms.Consumed() != 6 {
		t.Fatalf("resumed: id %d end %d consumed %d err %v", id, end.Offset(), ms.Consumed(), err)
	}
	if _, _, err := re.MatchIter(b.At(99)); err != hbytes.ErrOutOfRange {
		t.Fatalf("iterator past the end: %v", err)
	}
}

func TestMatchIterDoesNotAllocate(t *testing.T) {
	re := MustCompile(`[^ \t\r\n]+`)
	b := ropeOf([]byte("GET /index.html HTTP/1.1\r\n"+strings.Repeat("body", 500)), 2, 9)
	re.MatchIter(b.Begin()) // build the DFA states
	if n := testing.AllocsPerRun(100, func() { re.MatchIter(b.At(4)) }); n != 0 {
		t.Fatalf("MatchIter allocates %v times per call", n)
	}
}

// One Regexp matched from several goroutines at once — a grammar module's
// constant shared by every engine — builds its automaton concurrently;
// under -race this checks the cache, and every answer must equal that of
// a Regexp used alone.
func TestConcurrentMatching(t *testing.T) {
	pats := []string{`[^ \t\r\n]+`, `HTTP\/[0-9]+\.[0-9]+`, `[0-9a-fA-F]+\r\n`, `(ab|cd)*e`}
	inputs := []string{"GET /index.html", "HTTP/1.1 200", "1f\r\nrest", "ababcde", "cdcdcd", "\r\n", "zz 9"}
	want := make([][2]int64, len(inputs))
	for i, in := range inputs {
		id, n := MustCompile(pats...).MatchString(in)
		want[i] = [2]int64{int64(id), n}
	}
	shared := MustCompile(pats...)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 50 {
				i := (w + k) % len(inputs)
				if id, n := shared.MatchString(inputs[i]); id != int(want[i][0]) || n != want[i][1] {
					t.Errorf("worker %d: Match(%q) = (%d, %d), want %v", w, inputs[i], id, n, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
