// The Bro-like scripting language: AST and lexer. The subset implemented
// covers what the paper's evaluation scripts need (§6.5: the default-style
// HTTP and DNS analysis scripts, the Figure 8 tracking script, and the
// recursive Fibonacci baseline): typed globals with expiration attributes,
// record types, event handlers, functions, tables/sets/vectors, and the
// usual statements and expressions.

package bro

import (
	"fmt"
	"strings"
)

// --- AST ----------------------------------------------------------------------

// Script is a parsed script file.
type Script struct {
	Records   []*RecordDecl
	Globals   []*GlobalDecl
	Events    []*EventHandler
	Functions []*FuncDecl
}

// RecordDecl declares a record type.
type RecordDecl struct {
	Name   string
	Fields []RecordField
}

// RecordField is one record field.
type RecordField struct {
	Name     string
	Type     *TypeExpr
	Optional bool
	Log      bool
}

// GlobalDecl declares a global variable.
type GlobalDecl struct {
	Name         string
	Type         *TypeExpr
	Init         Expr // optional
	CreateExpire int64
	ReadExpire   int64
}

// EventHandler is one `event name(params) { body }`.
type EventHandler struct {
	Name   string
	Params []ParamDecl
	Body   []Stmt
	layout frameLayout
}

// FuncDecl is a script function.
type FuncDecl struct {
	Name   string
	Params []ParamDecl
	Result *TypeExpr
	Body   []Stmt
	layout frameLayout
}

// ParamDecl is one parameter.
type ParamDecl struct {
	Name string
	Type *TypeExpr
}

// TypeExpr is a type expression.
type TypeExpr struct {
	Kind  string      // bool count int double string addr subnet port time interval any
	Name  string      // record/enum reference
	Index []*TypeExpr // table/set index types
	Yield *TypeExpr   // table yield / vector element
}

// String renders the type.
func (t *TypeExpr) String() string {
	switch t.Kind {
	case "table":
		idx := make([]string, len(t.Index))
		for i, x := range t.Index {
			idx[i] = x.String()
		}
		return "table[" + strings.Join(idx, ",") + "] of " + t.Yield.String()
	case "set":
		idx := make([]string, len(t.Index))
		for i, x := range t.Index {
			idx[i] = x.String()
		}
		return "set[" + strings.Join(idx, ",") + "]"
	case "vector":
		return "vector of " + t.Yield.String()
	case "record":
		return t.Name
	default:
		return t.Kind
	}
}

// Stmt is a statement.
type Stmt interface{ isStmt() }

// LocalStmt declares a local, optionally initialized.
type LocalStmt struct {
	Name string
	Type *TypeExpr
	Init Expr
	slot int // the local's frame slot
}

// AssignStmt assigns to a name, index, or field expression.
type AssignStmt struct {
	LHS Expr // NameExpr, IndexExpr, or FieldExpr
	RHS Expr
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ForStmt iterates a container's keys/indices.
type ForStmt struct {
	Var  string
	Var2 string // second index / yield variable (optional)
	Over Expr
	Body []Stmt

	slot, slot2 int // frame slots of Var and Var2
}

// PrintStmt prints comma-separated values.
type PrintStmt struct{ Args []Expr }

// AddStmt is `add set[key]`.
type AddStmt struct{ Target *IndexExpr }

// DeleteStmt is `delete t[key]`.
type DeleteStmt struct{ Target *IndexExpr }

// ReturnStmt returns from a function.
type ReturnStmt struct{ Value Expr }

// ExprStmt evaluates an expression for effect (calls).
type ExprStmt struct{ E Expr }

// EventStmt is `event name(args)` — synchronous dispatch in this engine.
type EventStmt struct {
	Name string
	Args []Expr
}

func (*LocalStmt) isStmt()  {}
func (*AssignStmt) isStmt() {}
func (*IfStmt) isStmt()     {}
func (*ForStmt) isStmt()    {}
func (*PrintStmt) isStmt()  {}
func (*AddStmt) isStmt()    {}
func (*DeleteStmt) isStmt() {}
func (*ReturnStmt) isStmt() {}
func (*ExprStmt) isStmt()   {}
func (*EventStmt) isStmt()  {}

// Expr is an expression.
type Expr interface{ isExpr() }

// LitExpr is a literal value.
type LitExpr struct{ V Val }

// NameExpr references a variable.
type NameExpr struct {
	Name string
	slot int // 1 + the frame slot of a local; 0 for a global
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   string // + - * / % == != < <= > >= && || in !in
	L, R Expr
}

// UnaryExpr is ! or -, or | | (size).
type UnaryExpr struct {
	Op string // "!" "-" "||" (size)
	E  Expr
}

// IndexExpr is e[k1, k2, ...].
type IndexExpr struct {
	Base Expr
	Keys []Expr
}

// FieldExpr is e$f.
type FieldExpr struct {
	Base  Expr
	Field string
	site  fieldSite
}

// CallExpr is f(args).
type CallExpr struct {
	Fn   string
	Args []Expr
}

// CtorExpr constructs a record (Name != "") or vector (Name == "vector").
type CtorExpr struct {
	Name   string
	Fields []CtorField // record fields ($f=e) or positional vector elems
	rt     *RecordType // the interpreter's type of a record literal, built at first evaluation
}

// CtorField is one constructor component.
type CtorField struct {
	Name string // "" for positional
	E    Expr
	site fieldSite // a named constructor's argument: Name's index in the record
}

func (*LitExpr) isExpr()   {}
func (*NameExpr) isExpr()  {}
func (*BinExpr) isExpr()   {}
func (*UnaryExpr) isExpr() {}
func (*IndexExpr) isExpr() {}
func (*FieldExpr) isExpr() {}
func (*CallExpr) isExpr()  {}
func (*CtorExpr) isExpr()  {}

// --- Lexer ---------------------------------------------------------------------

type btokKind int

const (
	btEOF btokKind = iota
	btIdent
	btNumber // count or double (distinguish by '.')
	btString
	btAddr
	btSubnet
	btPort
	btPunct
)

type btok struct {
	kind btokKind
	text string
	line int
}

func lexScript(src string) ([]btok, error) {
	var toks []btok
	line := 1
	pos := 0
	emit := func(k btokKind, t string) { toks = append(toks, btok{k, t, line}) }
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == '#':
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		case c == '\n':
			line++
			pos++
		case c == ' ' || c == '\t' || c == '\r':
			pos++
		case c == '"':
			pos++
			var sb strings.Builder
			for pos < len(src) && src[pos] != '"' {
				if src[pos] == '\\' && pos+1 < len(src) {
					pos++
					switch src[pos] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(src[pos])
					}
					pos++
					continue
				}
				if src[pos] == '\n' {
					return nil, fmt.Errorf("line %d: unterminated string", line)
				}
				sb.WriteByte(src[pos])
				pos++
			}
			if pos >= len(src) {
				return nil, fmt.Errorf("line %d: unterminated string", line)
			}
			pos++
			emit(btString, sb.String())
		case c >= '0' && c <= '9':
			start := pos
			dots := 0
			for pos < len(src) {
				c2 := src[pos]
				if c2 >= '0' && c2 <= '9' {
					pos++
					continue
				}
				if c2 == '.' && pos+1 < len(src) && src[pos+1] >= '0' && src[pos+1] <= '9' {
					dots++
					pos++
					continue
				}
				break
			}
			text := src[start:pos]
			// Port: N/tcp|udp|icmp. Subnet: a.b.c.d/len.
			if pos < len(src) && src[pos] == '/' {
				rest := src[pos+1:]
				matched := false
				for _, proto := range []string{"tcp", "udp", "icmp"} {
					if strings.HasPrefix(rest, proto) {
						pos += 1 + len(proto)
						emit(btPort, text+"/"+proto)
						matched = true
						break
					}
				}
				if matched {
					continue
				}
				if dots == 3 && len(rest) > 0 && rest[0] >= '0' && rest[0] <= '9' {
					j := 0
					for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
						j++
					}
					pos += 1 + j
					emit(btSubnet, text+"/"+rest[:j])
					continue
				}
			}
			switch dots {
			case 0:
				emit(btNumber, text)
			case 1:
				emit(btNumber, text)
			case 3:
				emit(btAddr, text)
			default:
				return nil, fmt.Errorf("line %d: malformed number %q", line, text)
			}
		case isBIdentStart(c):
			start := pos
			for pos < len(src) {
				c2 := src[pos]
				if isBIdentStart(c2) || (c2 >= '0' && c2 <= '9') {
					pos++
					continue
				}
				if c2 == ':' && pos+1 < len(src) && src[pos+1] == ':' {
					pos += 2
					continue
				}
				break
			}
			emit(btIdent, src[start:pos])
		default:
			// Multi-char operators first.
			two := ""
			if pos+1 < len(src) {
				two = src[pos : pos+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||", "+=":
				emit(btPunct, two)
				pos += 2
				continue
			}
			if strings.IndexByte("(){}[],;:$|!<>=+-*/%&.", c) >= 0 {
				emit(btPunct, string(c))
				pos++
				continue
			}
			return nil, fmt.Errorf("line %d: unexpected character %q", line, c)
		}
	}
	emit(btEOF, "")
	return toks, nil
}

func isBIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
