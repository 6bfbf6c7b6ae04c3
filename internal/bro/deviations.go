// The known ways the BinPAC++ parsers' events differ from the standard
// parsers' on the same input, named in one place: hilti-bench -exp table2
// prints them beside the log agreement they explain, and FuzzParsersAgree
// feeds only input outside them, so a disagreement it finds is a bug on one
// side or a new entry here.

package bro

// ParserDeviation is one known difference between the two parser families.
type ParserDeviation struct {
	Name   string
	Reason string
}

// ParserDeviations lists every known difference.
var ParserDeviations = []ParserDeviation{
	{"dns-txt-strings", "a TXT record of several character-strings: the standard parser keeps the first, as Bro's does, the grammar all of them, so only the grammar rejects a later string that overruns the rdata"},
	{"http-line-syntax", "a line no HTTP message builder writes: the standard parser splits request and status lines at spaces and headers at the first colon, the grammar matches tokens, so each rejects malformed lines the other accepts"},
	{"http-content-length-syntax", "a Content-Length strconv.Atoi reads but that is not all digits, such as +5: the standard parser frames the body by it, the grammar rejects the message"},
	{"http-reply-length-0", "a reply with Content-Length: 0 and a status that carries a body: the standard parser reads the body to the end of the connection, the grammar takes it as empty"},
	{"http-chunked-request", "a request with Transfer-Encoding: chunked: the standard parser de-chunks its body, the grammar frames request bodies by Content-Length only"},
	{"http-header-name-folding", "a framing header name that matches only under Unicode case folding (tranſfer-encoding): the standard parser's strings.EqualFold takes it, the grammar's ASCII bytes.equal_nocase does not"},
}
