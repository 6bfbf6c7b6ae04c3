// Package classifier implements HILTI's classifier type: ACL-style packet
// classification (paper §3.2). A classifier holds a list of rules — tuples
// of per-field matchers such as CIDR prefixes, exact ports, or wildcards —
// each associated with a value; matching a key tuple returns the value of
// the first rule (in insertion order) whose fields all match, exactly the
// semantics the paper's stateful-firewall exemplar relies on.
//
// The paper notes its prototype "currently implement[s] the classifier type
// as a linked list internally" and that switching to a better structure
// would be transparent to host applications. This package stays that
// prototype — a linear first-match list, and the reference the tests compare
// against; the better structure is rt/ruleplane, which ingests a classifier
// through Rules (ruleplane.FromClassifier).
package classifier

import (
	"errors"
	"fmt"
	"strings"

	"hilti/internal/rt/values"
)

// ErrNoMatch is returned by Get when no rule matches; HILTI raises
// Hilti::IndexError for this case, and the VM maps this error onto it.
var ErrNoMatch = errors.New("classifier: no matching rule")

// ErrNotCompiled is returned by Get before Compile has been called.
var ErrNotCompiled = errors.New("classifier: not compiled")

// ErrCompiled is returned by Add after Compile has been called.
var ErrCompiled = errors.New("classifier: already compiled")

// Field matches one component of a key tuple.
type Field interface {
	Matches(v values.Value) bool
	String() string
}

// Wildcard matches anything (the paper's `*` rule fields).
type Wildcard struct{}

// Matches implements Field.
func (Wildcard) Matches(values.Value) bool { return true }

func (Wildcard) String() string { return "*" }

// NetField matches addresses within a CIDR prefix.
type NetField struct{ Net values.Value }

// Matches implements Field.
func (f NetField) Matches(v values.Value) bool { return f.Net.NetContains(v) }

func (f NetField) String() string { return values.Format(f.Net) }

// ExactField matches values equal to a constant.
type ExactField struct{ Val values.Value }

// Matches implements Field.
func (f ExactField) Matches(v values.Value) bool { return values.Equal(f.Val, v) }

func (f ExactField) String() string { return values.Format(f.Val) }

// PortRangeField matches ports within [Lo, Hi] of the same protocol.
type PortRangeField struct {
	Lo, Hi uint16
	Proto  uint8
}

// Matches implements Field.
func (f PortRangeField) Matches(v values.Value) bool {
	p, proto := v.AsPort()
	return proto == f.Proto && p >= f.Lo && p <= f.Hi
}

func (f PortRangeField) String() string {
	return fmt.Sprintf("%d-%d", f.Lo, f.Hi)
}

// FieldFor builds the natural matcher for a constant value: nets match by
// prefix, everything else exactly. A void value becomes a wildcard.
func FieldFor(v values.Value) Field {
	switch v.K {
	case values.KindNet:
		return NetField{Net: v}
	case values.KindVoid, values.KindUnset:
		return Wildcard{}
	default:
		return ExactField{Val: v}
	}
}

type rule struct {
	fields []Field
	val    values.Value
}

// Classifier is the rule table. Rules are added, then Compile freezes the
// table (HILTI's classifier.compile), after which Get may be used.
type Classifier struct {
	nfields  int
	rules    []rule
	compiled bool
}

// New creates a classifier for key tuples of nfields components.
func New(nfields int) *Classifier { return &Classifier{nfields: nfields} }

// TypeName implements the runtime Object interface.
func (c *Classifier) TypeName() string { return "classifier" }

// FormatObj implements the runtime Formatter interface.
func (c *Classifier) FormatObj() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "classifier(%d rules)", len(c.rules))
	return sb.String()
}

// Len returns the number of rules.
func (c *Classifier) Len() int { return len(c.rules) }

// Add appends a rule with the given per-field matchers and result value.
// Priority is insertion order: earlier rules win (paper: "applied in order
// of specification. The first match determines the result").
func (c *Classifier) Add(fields []Field, val values.Value) error {
	if c.compiled {
		return ErrCompiled
	}
	if len(fields) != c.nfields {
		return fmt.Errorf("classifier: rule has %d fields, want %d", len(fields), c.nfields)
	}
	c.rules = append(c.rules, rule{fields: fields, val: val})
	return nil
}

// AddValues is Add with matchers derived via FieldFor.
func (c *Classifier) AddValues(val values.Value, keys ...values.Value) error {
	fields := make([]Field, len(keys))
	for i, k := range keys {
		fields[i] = FieldFor(k)
	}
	return c.Add(fields, val)
}

// Compile freezes the rule set. After Compile, Get becomes available and
// Add is rejected.
func (c *Classifier) Compile() { c.compiled = true }

// Get returns the value of the first matching rule for the key tuple.
func (c *Classifier) Get(key ...values.Value) (values.Value, error) {
	if !c.compiled {
		return values.Nil, ErrNotCompiled
	}
	if len(key) != c.nfields {
		return values.Nil, fmt.Errorf("classifier: key has %d fields, want %d", len(key), c.nfields)
	}
	for i := range c.rules {
		if c.rules[i].matches(key) {
			return c.rules[i].val, nil
		}
	}
	return values.Nil, ErrNoMatch
}

// Matches reports whether any rule matches, without returning its value.
func (c *Classifier) Matches(key ...values.Value) bool {
	_, err := c.Get(key...)
	return err == nil
}

// RuleView is a read-only view of one rule, in priority (insertion)
// order, for consumers that re-compile the table into other structures
// (the shared rule plane ingests classifiers through this).
type RuleView struct {
	Fields []Field
	Val    values.Value
}

// Rules returns the rule list in priority order. The field slices are
// shared with the classifier; callers must not mutate them.
func (c *Classifier) Rules() []RuleView {
	out := make([]RuleView, len(c.rules))
	for i := range c.rules {
		out[i] = RuleView{Fields: c.rules[i].fields, Val: c.rules[i].val}
	}
	return out
}

// NumFields returns the key-tuple width the classifier was created with.
func (c *Classifier) NumFields() int { return c.nfields }

func (r *rule) matches(key []values.Value) bool {
	for i, f := range r.fields {
		if !f.Matches(key[i]) {
			return false
		}
	}
	return true
}
