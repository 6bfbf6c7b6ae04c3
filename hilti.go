// Package hilti is the public API of this HILTI implementation: an
// abstract execution environment for deep, stateful network traffic
// analysis (Vallentin, Sommer, Paxson, De Carli — IMC 2014), implemented
// from scratch in Go.
//
// HILTI is a middle layer between a host application and the platform
// executing its traffic analysis. A host application compiles its own
// analysis specification (filter expressions, firewall rules, protocol
// grammars, scripts) into HILTI code — either textual source or an
// in-memory AST built with the Builder — links it into a Program, and
// executes it through an Exec, the per-(virtual-)thread execution context.
//
// Quick start:
//
//	prog, err := hilti.CompileSource(`
//	    module Main
//	    import Hilti
//	    void run () {
//	        call Hilti::print ("Hello, World!")
//	    }
//	`)
//	ex, err := hilti.NewExec(prog)
//	_, err = ex.Call("Main::run")
//
// The subpackages under internal implement the machine model (types, AST,
// parser, compiler, VM), the runtime library (bytes, containers with state
// management, timers, incremental regular expressions, classifiers,
// overlays, fibers, virtual threads, channels), the packet substrate
// (pcap, layers, reassembly, synthetic traffic), and the four host
// applications of the paper's §4 (BPF filter, stateful firewall, BinPAC++
// parser generator, Bro-script compiler).
package hilti

import (
	"errors"

	"hilti/internal/hilti/ast"
	"hilti/internal/hilti/check"
	"hilti/internal/hilti/parser"
	"hilti/internal/hilti/types"
	"hilti/internal/hilti/vm"
	"hilti/internal/rt/values"
)

// Re-exported core types. These aliases form the stable public surface;
// the internal packages carry the implementation.
type (
	// Module is a HILTI compilation unit (one `module` declaration).
	Module = ast.Module
	// Builder constructs modules in memory — the paper's AST API (§3.4).
	Builder = ast.Builder
	// Program is a linked, executable set of modules.
	Program = vm.Program
	// Exec is an execution context: thread-local globals, timers,
	// exception state (§5 "Runtime Model").
	Exec = vm.Exec
	// Resumable is a suspended fiber-backed call (incremental parsing).
	Resumable = vm.Resumable
	// Value is a runtime value of the abstract machine.
	Value = values.Value
	// Type is a static HILTI type.
	Type = types.Type
	// HostFunc is a Go function callable from HILTI code.
	HostFunc = vm.HostFunc
	// CompiledFunc is one executable function of a Program.
	CompiledFunc = vm.CompiledFunc
)

// Parse parses HILTI textual source (.hlt) into a module.
func Parse(src string) (*Module, error) { return parser.Parse(src) }

// NewBuilder opens an in-memory module builder.
func NewBuilder(name string) *Builder { return ast.NewBuilder(name) }

// Check runs the static verifier over modules, returning all diagnostics
// (paper §3.2's statically typed, contained environment).
func Check(mods ...*Module) []error { return check.Check(mods...) }

// OptLevel selects how much the post-lowering optimizer does.
type OptLevel int

// Optimization levels for Config.OptLevel.
const (
	// OptDefault applies the package default (currently O1). Being the
	// zero value, an empty Config means "optimize".
	OptDefault OptLevel = iota
	// O0 disables the optimizer: code executes exactly as lowered. The
	// escape hatch for debugging and for differential testing.
	O0
	// O1 runs the full pass pipeline: constant folding, copy propagation,
	// jump threading, unreachable-code elimination, and compare+branch
	// fusion (see internal/hilti/vm/opt.go).
	O1
	// O2 additionally installs tier-2 code for every function ahead of
	// time: unboxed int/bool register slots, fused overlay compares, and
	// verified straight-line regions that elide per-instruction budget
	// checks (see internal/hilti/vm/tier2.go). vm.Exec.EnableTiering builds
	// the same code at runtime, once a function is hot.
	O2
)

// Config controls compilation of modules into a Program.
type Config struct {
	// OptLevel selects the optimizer level; the zero value OptDefault
	// means "optimize" (O1).
	OptLevel OptLevel
}

func (c Config) vmOptions() vm.Options {
	lvl := vm.DefaultOptLevel()
	switch c.OptLevel {
	case O0:
		lvl = 0
	case O1:
		lvl = 1
	case O2:
		lvl = 2
	}
	return vm.Options{OptLevel: lvl}
}

// Link verifies, compiles, and links modules into an executable Program,
// merging hook bodies and laying out thread-local globals across units
// (the paper's custom linker stage).
func Link(mods ...*Module) (*Program, error) {
	return LinkWith(Config{}, mods...)
}

// LinkWith is Link with explicit compilation options — notably the -O0
// escape hatch that disables the post-lowering optimizer.
func LinkWith(cfg Config, mods ...*Module) (*Program, error) {
	if errs := check.Check(mods...); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return vm.LinkWith(cfg.vmOptions(), mods...)
}

// SetDefaultOptLevel changes the optimizer level Link and vm.Link apply
// when no explicit configuration is given (process-wide; the hilti-bench
// -opt flag uses it). Level 0 disables optimization.
func SetDefaultOptLevel(level int) { vm.SetDefaultOptLevel(level) }

// Disasm renders a compiled function's linear code as text, one
// instruction per line — the debugging companion to the optimizer.
func Disasm(fn *CompiledFunc) string { return fn.Disasm() }

// CompileSource parses and links a single textual module.
func CompileSource(src string) (*Program, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Link(m)
}

// NewExec creates an execution context for a linked program.
func NewExec(p *Program) (*Exec, error) { return vm.NewExec(p) }

// Run is the hilti-build convenience path: compile source, create a
// context, and invoke the module's run() entry point if present.
func Run(src string, entry string) (Value, error) {
	prog, err := CompileSource(src)
	if err != nil {
		return values.Nil, err
	}
	ex, err := NewExec(prog)
	if err != nil {
		return values.Nil, err
	}
	return ex.Call(entry)
}

// Value constructors, re-exported for host applications.
var (
	// Int builds an integer value.
	Int = values.Int
	// Bool builds a boolean value.
	Bool = values.Bool
	// String builds a string value.
	String = values.String
	// BytesFrom builds a frozen bytes value from raw data.
	BytesFrom = values.BytesFrom
	// TimeVal builds a time value from ns since the epoch.
	TimeVal = values.TimeVal
	// IntervalVal builds an interval from ns.
	IntervalVal = values.IntervalVal
	// ParseAddr parses an IPv4/IPv6 address.
	ParseAddr = values.ParseAddr
	// ParseNet parses a CIDR subnet.
	ParseNet = values.ParseNet
	// ParsePort parses "80/tcp".
	ParsePort = values.ParsePort
	// Format renders a value the way Hilti::print does.
	Format = values.Format
)
