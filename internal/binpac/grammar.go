// Package binpac implements BinPAC++, the paper's third exemplar (§4 "A
// Yacc for Network Protocols"): a parser generator that turns protocol
// grammars into HILTI code. Units describe protocol data units as ordered
// fields — regular-expression tokens, fixed-width integers, raw bytes with
// computed lengths, sub-units, lists, and switches — and the compiler
// (compile.go) emits fully incremental parsers: whenever input runs out,
// the generated code transparently suspends its fiber and resumes when the
// host feeds more data (paper §3.2).
//
// Semantic constructs beyond pure syntax — the paper's grammar-language
// extensions "for annotating, controlling, and interfacing to the parsing
// process" — appear in two forms: unit variables that fields and switches
// can reference, and per-field hooks compiled into HILTI hook invocations;
// protocol modules attach hook bodies (themselves HILTI code built with the
// AST API) that compute variables or raise host events. A custom-function
// escape hatch covers wire formats that need imperative parsing, such as
// DNS name compression.
package binpac

import (
	"fmt"
	"slices"
)

// FieldKind enumerates grammar field types.
type FieldKind int

// Field kinds.
const (
	FToken      FieldKind = iota // regexp token; value = matched bytes
	FLiteral                     // regexp that must match; value discarded
	FUInt                        // fixed-width unsigned integer
	FBytes                       // raw bytes with a computed length
	FBytesUntil                  // raw bytes up to (and consuming) a delimiter
	FRestOfData                  // all bytes until end of input
	FSubUnit                     // nested unit
	FList                        // repeated element
	FSwitch                      // alternative selected by an integer source
	FCustom                      // call a user-supplied HILTI function
)

// ListMode selects how a list field terminates.
type ListMode int

// List modes.
const (
	ListCount        ListMode = iota // exactly N elements (from a source)
	ListUntilLiteral                 // until a terminator pattern matches (consumed)
	ListUntilEnd                     // until end of input
)

// Src names an integer source for lengths, counts and switches: a constant,
// a unit variable, or a previously parsed integer field.
type Src struct {
	Const int64
	Var   string // unit variable name
	Field string // earlier field name
}

// ConstSrc builds a constant source.
func ConstSrc(n int64) Src { return Src{Const: n, Var: "", Field: ""} }

// VarSrc builds a unit-variable source.
func VarSrc(name string) Src { return Src{Var: name} }

// FieldSrc builds a field source.
func FieldSrc(name string) Src { return Src{Field: name} }

// Case is one alternative of a switch field.
type Case struct {
	Value  int64
	Fields []*Field
}

// Field is one grammar field.
type Field struct {
	Name string // "" for anonymous (value not stored)
	Kind FieldKind

	Pattern string // FToken, FLiteral
	Width   int    // FUInt: 8, 16, 32
	Little  bool   // FUInt byte order

	Length Src    // FBytes
	Delim  string // FBytesUntil: literal delimiter (e.g. "\r\n")
	// Stream (FBytes, FRestOfData) hands the field's input to its hook as it
	// arrives, one piece at a time — a view of one rope chunk — as the hook's
	// last argument. Nothing is stored, and no whole-field bytes is built.
	Stream bool

	Unit     string   // FSubUnit: unit name
	UnitArgs []string // FSubUnit: argument names ("%begin", var names)

	Elem  *Field // FList element
	Mode  ListMode
	Count Src    // ListCount
	Until string // ListUntilLiteral: terminator pattern (consumed)

	On      Src      // FSwitch selector
	Cases   []Case   // FSwitch alternatives
	Default []*Field // FSwitch default (nil = parse error on no match)

	Func     string   // FCustom: HILTI function name
	FuncArgs []string // FCustom extra args ("%begin", var names)

	Hook bool // run hook "<Unit>::<name>"(self) after this field parses
}

// VarType enumerates unit-variable types.
type VarType int

// Unit variable types.
const (
	VarInt VarType = iota
	VarBytes
	VarBool
	VarDigest // an incremental hash (hash.new)
)

// Var is a unit variable: state the grammar's semantic hooks compute and
// later fields consume (the paper's "support for keeping arbitrary state").
type Var struct {
	Name    string
	Type    VarType
	Default int64 // initial value for VarInt/VarBool
}

// Unit is one protocol data unit.
type Unit struct {
	Name     string
	Params   []string // extra iterator params, e.g. the message start for DNS
	Vars     []Var
	Fields   []*Field
	HookDone bool // run hook "<Unit>::%done"(self) after the unit parses
}

// Grammar is a named set of units.
type Grammar struct {
	Name  string
	Units []*Unit
	Top   string // top-level unit name
}

// Unit looks up a unit by name.
func (g *Grammar) Unit(name string) *Unit {
	for _, u := range g.Units {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// Validate checks cross-references.
func (g *Grammar) Validate() error {
	if g.Unit(g.Top) == nil {
		return fmt.Errorf("binpac: top unit %q not defined", g.Top)
	}
	for _, u := range g.Units {
		for _, f := range u.Fields {
			if err := g.checkField(u, f); err != nil {
				return fmt.Errorf("binpac: unit %s: %w", u.Name, err)
			}
		}
	}
	return nil
}

func (g *Grammar) checkField(u *Unit, f *Field) error {
	if f.Stream && f.Kind != FBytes && f.Kind != FRestOfData {
		return fmt.Errorf("field %q: only bytes fields stream", f.Name)
	}
	switch f.Kind {
	case FToken, FLiteral:
		if f.Pattern == "" {
			return fmt.Errorf("field %q: empty pattern", f.Name)
		}
	case FUInt:
		if f.Width != 8 && f.Width != 16 && f.Width != 32 {
			return fmt.Errorf("field %q: bad width %d", f.Name, f.Width)
		}
	case FSubUnit:
		if g.Unit(f.Unit) == nil {
			return fmt.Errorf("field %q: unknown unit %q", f.Name, f.Unit)
		}
	case FList:
		if f.Elem == nil {
			return fmt.Errorf("field %q: list without element", f.Name)
		}
		if f.Elem.Stream {
			return fmt.Errorf("field %q: a list element cannot be streamed", f.Name)
		}
		return g.checkField(u, f.Elem)
	case FSwitch:
		for _, c := range f.Cases {
			for _, cf := range c.Fields {
				if err := g.checkField(u, cf); err != nil {
					return err
				}
			}
		}
		for _, cf := range f.Default {
			if err := g.checkField(u, cf); err != nil {
				return err
			}
		}
	}
	return nil
}

// parses reports whether a field of some unit parses unit name.
func (g *Grammar) parses(name string) bool {
	var walk func(fs []*Field) bool
	walk = func(fs []*Field) bool {
		for _, f := range fs {
			if f.Kind == FSubUnit && f.Unit == name ||
				f.Elem != nil && walk([]*Field{f.Elem}) || walk(f.Default) {
				return true
			}
			for _, c := range f.Cases {
				if walk(c.Fields) {
					return true
				}
			}
		}
		return false
	}
	for _, u := range g.Units {
		if walk(u.Fields) {
			return true
		}
	}
	return false
}

// passesBegin reports whether a field hands its unit's start (%begin) to a
// sub-unit or custom function: input before the current position may then
// still be read, so the parser must keep it.
func (g *Grammar) passesBegin() bool {
	var walk func(fs []*Field) bool
	walk = func(fs []*Field) bool {
		for _, f := range fs {
			if slices.Contains(f.UnitArgs, "%begin") || slices.Contains(f.FuncArgs, "%begin") ||
				f.Elem != nil && walk([]*Field{f.Elem}) || walk(f.Default) {
				return true
			}
			for _, c := range f.Cases {
				if walk(c.Fields) {
					return true
				}
			}
		}
		return false
	}
	for _, u := range g.Units {
		if walk(u.Fields) {
			return true
		}
	}
	return false
}

// hasVar reports whether the unit declares variable name.
func (u *Unit) hasVar(name string) bool {
	for _, v := range u.Vars {
		if v.Name == name {
			return true
		}
	}
	return false
}

// hasField reports whether the unit has a named field called name
// (including inside switch alternatives).
func (u *Unit) hasField(name string) bool {
	var walk func(fs []*Field) bool
	walk = func(fs []*Field) bool {
		for _, f := range fs {
			if f.Name == name {
				return true
			}
			if f.Kind == FSwitch {
				for _, cs := range f.Cases {
					if walk(cs.Fields) {
						return true
					}
				}
				if walk(f.Default) {
					return true
				}
			}
		}
		return false
	}
	return walk(u.Fields)
}
