// The logging framework: named streams with fixed column orders producing
// Bro-style tab-separated logs (http.log, files.log, dns.log — the files
// the paper's Tables 2 and 3 diff). Lines are accumulated in memory for
// the comparison harness and optionally written to disk.

package bro

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hilti/internal/rt/metrics"
	"hilti/internal/rt/values"
)

// LogSet manages the output streams.
type LogSet struct {
	streams map[string]*logStream
	// Discard computes lines but drops them — the paper's methodology for
	// performance runs ("Bro still performs the same computation but skips
	// the final write operation").
	Discard bool
	// written counts every Write, including discarded ones, atomically so
	// a metrics scrape can read it while the engine's worker writes. It is
	// checkpointed: restored engines continue the count.
	written metrics.Counter
}

type logStream struct {
	name    string
	columns []string
	lines   []string
	// plans holds a column plan per field list written to this stream;
	// row is the scratch each row is formatted in before its one string.
	plans []logPlan
	row   []byte
}

// logPlan places one field list in a stream's columns: pos[i] is the field
// that fills column i, or -1 when the list has none (rendered "-"). The
// field list is a *RecordType (an interpreted record, or a compiled record
// literal's constant) or a *values.StructDef (a compiled record variable).
type logPlan struct {
	fields any
	pos    []int
}

// maxPlans bounds a stream's plans. Scripts have a handful of field lists
// per stream, but a record decoded from a checkpoint under an unknown type
// name gets a fresh RecordType, and each would add a plan.
const maxPlans = 16

// NewLogSet creates the standard streams.
func NewLogSet() *LogSet {
	ls := &LogSet{streams: map[string]*logStream{}}
	ls.Create("http", []string{"ts", "uid", "orig_h", "orig_p", "resp_h", "resp_p",
		"method", "host", "uri", "version", "status_code", "reason", "resp_mime", "resp_len"})
	ls.Create("files", []string{"ts", "uid", "mime", "sha1", "len"})
	ls.Create("dns", []string{"ts", "uid", "orig_h", "orig_p", "resp_h", "resp_p",
		"trans_id", "query", "qtype", "qtype_name", "rcode", "rcode_name", "answers", "ttls"})
	return ls
}

// Create registers a stream with its column order.
func (ls *LogSet) Create(name string, columns []string) {
	ls.streams[name] = &logStream{name: name, columns: columns}
}

// stream returns the named stream, creating it without declared columns:
// such a stream takes each record's own field order.
func (ls *LogSet) stream(name string) *logStream {
	st, ok := ls.streams[name]
	if !ok {
		st = &logStream{name: name}
		ls.streams[name] = st
	}
	return st
}

// plan returns the column plan for fields, building it on first use.
func (st *logStream) plan(fields any) []int {
	for i := range st.plans {
		if st.plans[i].fields == fields {
			return st.plans[i].pos
		}
	}
	var names []string
	switch f := fields.(type) {
	case *RecordType:
		names = f.Fields
	case *values.StructDef:
		names = make([]string, len(f.Fields))
		for i, sf := range f.Fields {
			names[i] = sf.Name
		}
	}
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i // a repeated name resolves to its last field, as RecordType.Index does
	}
	cols := st.columns
	if cols == nil {
		cols = names
	}
	pos := make([]int, len(cols))
	for i, c := range cols {
		if j, ok := index[c]; ok {
			pos[i] = j
		} else {
			pos[i] = -1
		}
	}
	if len(st.plans) == maxPlans {
		st.plans = st.plans[:0]
	}
	st.plans = append(st.plans, logPlan{fields: fields, pos: pos})
	return pos
}

// Write formats one interpreted record into its stream.
func (ls *LogSet) Write(stream string, rec *RecordVal) {
	st := ls.stream(stream)
	row := st.row[:0]
	for i, j := range st.plan(rec.T) {
		if i > 0 {
			row = append(row, '\t')
		}
		if j < 0 {
			row = append(row, '-')
		} else {
			row = appendOr(row, rec.F[j], "-")
		}
	}
	ls.emit(st, row)
}

// writeHilti formats one row of HILTI values into its stream: fields[i] is
// the value of field i of the list fields (see logPlan), unset if absent.
func (ls *LogSet) writeHilti(stream string, fields any, vals []values.Value) {
	st := ls.stream(stream)
	row := st.row[:0]
	for i, j := range st.plan(fields) {
		if i > 0 {
			row = append(row, '\t')
		}
		if j < 0 {
			row = append(row, '-')
		} else {
			row = appendHiltiOr(row, vals[j], "-")
		}
	}
	ls.emit(st, row)
}

// emit turns a formatted row into the stream's next line.
func (ls *LogSet) emit(st *logStream, row []byte) {
	st.row = row[:0]
	line := string(row)
	ls.written.Inc()
	if !ls.Discard {
		st.lines = append(st.lines, line)
	}
}

// Written returns the total number of log records written (whether kept or
// discarded) since the engine started or was restored.
func (ls *LogSet) Written() uint64 { return ls.written.Load() }

// Lines returns a stream's raw lines.
func (ls *LogSet) Lines(stream string) []string {
	if st, ok := ls.streams[stream]; ok {
		return st.lines
	}
	return nil
}

// WriteFiles writes each stream to dir/<name>.log with a header line.
func (ls *LogSet) WriteFiles(dir string) error {
	for name, st := range ls.streams {
		f, err := os.Create(filepath.Join(dir, name+".log"))
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "#fields\t%s\n", strings.Join(st.columns, "\t"))
		for _, l := range st.lines {
			fmt.Fprintln(f, l)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// --- Table 2/3 comparison machinery -------------------------------------------

// Normalize applies the paper's §6.4 normalization: entries are unique'd
// and sorted, so timing/ordering differences do not count as mismatches.
func Normalize(lines []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range lines {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// Agreement is one row of Table 2 / Table 3.
type Agreement struct {
	Stream         string
	TotalA, TotalB int
	NormA, NormB   int
	Identical      int
	IdenticalFrac  float64
}

// CompareLogs computes the agreement between two runs' log streams: the
// fraction of run A's normalized entries that have an identical entry in
// run B.
func CompareLogs(stream string, a, b []string) Agreement {
	na, nb := Normalize(a), Normalize(b)
	inB := make(map[string]bool, len(nb))
	for _, l := range nb {
		inB[l] = true
	}
	same := 0
	for _, l := range na {
		if inB[l] {
			same++
		}
	}
	frac := 1.0
	if len(na) > 0 {
		frac = float64(same) / float64(len(na))
	}
	return Agreement{
		Stream: stream,
		TotalA: len(a), TotalB: len(b),
		NormA: len(na), NormB: len(nb),
		Identical:     same,
		IdenticalFrac: frac,
	}
}
