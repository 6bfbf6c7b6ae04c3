// The Val<->HILTI conversion glue (paper §5 "Bro Interface"). The paper's
// engine keeps Vals everywhere, so every crossing into or out of compiled
// code converts; it measures this glue separately (Figures 9/10) and notes
// a tightly integrated host would avoid it. This engine raises events with
// HILTI values, which compiled handlers take as they are. What is left
// converts parse results into event arguments (engine_binpac.go, charged
// to glue) and arguments into an interpreted handler's Vals (scriptVal).
// Output converts nothing: renderHilti renders a value as its Val would.

package bro

import (
	"fmt"

	"hilti/internal/hilti/vm"
	"hilti/internal/rt/container"
	"hilti/internal/rt/values"
)

// Glue converts between Val and HILTI values.
type Glue struct {
	rtypes map[string]*RecordType // HILTI struct name -> record type
}

// NewGlue creates a glue layer.
func NewGlue() *Glue {
	return &Glue{rtypes: map[string]*RecordType{}}
}

// scriptVal converts an event argument into the Val of t, the type an
// interpreted handler declares for it (nil: none). An integer is a count
// unless declared an int, whatever its sign; the rest is as fromHilti
// converts it, a Val carried as Any being itself.
func (g *Glue) scriptVal(v values.Value, t *TypeExpr) Val {
	if v.K == values.KindInt {
		if t != nil && t.Kind == "int" {
			return IntVal(v.AsInt())
		}
		return CountVal(v.AsInt())
	}
	return g.fromHilti(v)
}

// fromHilti converts a HILTI value into a Val. Type hints come from the
// value's own kind; counts are the default integer interpretation, as
// script-facing integers are counts in the evaluation scripts.
func (g *Glue) fromHilti(v values.Value) Val {
	switch v.K {
	case values.KindBool:
		return BoolVal(v.AsBool())
	case values.KindInt:
		if v.AsInt() < 0 {
			return IntVal(v.AsInt())
		}
		return CountVal(v.AsInt())
	case values.KindDouble:
		return DoubleVal(v.AsDouble())
	case values.KindString:
		return StringVal(v.AsString())
	case values.KindBytes:
		return StringVal(v.AsBytes().String())
	case values.KindAddr:
		return AddrVal{A: v}
	case values.KindNet:
		return SubnetVal{N: v}
	case values.KindPort:
		num, proto := v.AsPort()
		return PortVal{Num: num, Proto: proto}
	case values.KindTime:
		return TimeVal(v.AsTimeNs())
	case values.KindInterval:
		return IntervalVal(v.AsIntervalNs())
	case values.KindStruct:
		s := v.AsStruct()
		rt, ok := g.rtypes[s.Def.Name]
		if !ok {
			names := make([]string, len(s.Def.Fields))
			for i, f := range s.Def.Fields {
				names[i] = f.Name
			}
			rt = NewRecordType(s.Def.Name, names...)
			g.rtypes[s.Def.Name] = rt
		}
		r := NewRecord(rt)
		for i := range s.Fields {
			if fv, set := s.Get(i); set {
				r.F[i] = g.fromHilti(fv)
			}
		}
		return r
	case values.KindVector:
		vec := v.O.(*container.Vector)
		out := &VectorVal{}
		vec.Each(func(e values.Value) bool {
			out.Elems = append(out.Elems, g.fromHilti(e))
			return true
		})
		return out
	case values.KindSet:
		set := v.O.(*container.Set)
		out := NewTable(true)
		set.Each(func(e values.Value) bool {
			out.Put(0, []Val{g.fromHilti(e)}, nil)
			return true
		})
		return out
	case values.KindMap:
		m := v.O.(*container.Map)
		out := NewTable(false)
		m.Each(func(k, y values.Value) bool {
			out.Put(0, []Val{g.fromHilti(k)}, g.fromHilti(y))
			return true
		})
		return out
	case values.KindTuple:
		t := v.AsTuple()
		out := &VectorVal{}
		for _, e := range t.Elems {
			out.Elems = append(out.Elems, g.fromHilti(e))
		}
		return out
	case values.KindAny:
		if bv, ok := v.O.(Val); ok {
			return bv
		}
		return nil
	default:
		return nil
	}
}

// appendHilti appends v rendered exactly as fromHilti(v).Append renders
// the Val, without building it: a scalar through its Val's Append (an int
// renders alike as a count and as an int). ok is false where fromHilti has
// no Val (unset, void, and kinds scripts never see): dst is then unchanged
// and the caller writes the placeholder the Val renderers use for nil (see
// appendOr).
func appendHilti(dst []byte, v values.Value) (_ []byte, ok bool) {
	switch v.K {
	case values.KindBool:
		return BoolVal(v.AsBool()).Append(dst), true
	case values.KindInt:
		return IntVal(v.AsInt()).Append(dst), true
	case values.KindDouble:
		return DoubleVal(v.AsDouble()).Append(dst), true
	case values.KindString:
		return append(dst, v.AsString()...), true
	case values.KindBytes:
		return append(dst, v.AsBytes().Bytes()...), true
	case values.KindAddr:
		return AddrVal{A: v}.Append(dst), true
	case values.KindNet:
		return SubnetVal{N: v}.Append(dst), true
	case values.KindPort:
		num, proto := v.AsPort()
		return PortVal{Num: num, Proto: proto}.Append(dst), true
	case values.KindTime:
		return TimeVal(v.AsTimeNs()).Append(dst), true
	case values.KindInterval:
		return IntervalVal(v.AsIntervalNs()).Append(dst), true
	case values.KindStruct:
		s := v.AsStruct()
		dst = append(dst, '[')
		for i, f := range s.Def.Fields {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(append(dst, f.Name...), '=')
			fv, _ := s.Get(i)
			dst = appendHiltiOr(dst, fv, "<unset>")
		}
		return append(dst, ']'), true
	case values.KindVector:
		dst = append(dst, '[')
		first := true
		v.O.(*container.Vector).Each(func(e values.Value) bool {
			if !first {
				dst = append(dst, ", "...)
			}
			first = false
			dst = appendHiltiOr(dst, e, "<unset>")
			return true
		})
		return append(dst, ']'), true
	case values.KindTuple:
		dst = append(dst, '[')
		for i, e := range v.AsTuple().Elems {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendHiltiOr(dst, e, "<unset>")
		}
		return append(dst, ']'), true
	case values.KindSet, values.KindMap:
		// A table's rendering depends on how its keys collapse into Vals;
		// no log column is one, so build the table.
		return NewGlue().fromHilti(v).Append(dst), true
	case values.KindAny:
		if bv, ok := v.O.(Val); ok {
			return bv.Append(dst), true
		}
	}
	return dst, false
}

// appendHiltiOr appends v as appendHilti does, or placeholder where v has
// no Val.
func appendHiltiOr(dst []byte, v values.Value, placeholder string) []byte {
	if out, ok := appendHilti(dst, v); ok {
		return out
	}
	return append(dst, placeholder...)
}

// renderHilti is appendHilti as a string, "-" where v has no Val. Strings
// and byte ropes, what parsers hand the host, cost at most their one copy.
func renderHilti(v values.Value) string {
	switch v.K {
	case values.KindString:
		return v.AsString()
	case values.KindBytes:
		return v.AsBytes().String()
	}
	var buf [64]byte
	return string(appendHiltiOr(buf[:0], v, "-"))
}

// RegisterHostFns wires the bro_* host functions that compiled scripts
// call: printing, formatting, logging, and network time. now mirrors the
// Interp field; logs receives Log::write rows (nil drops them); e.Out
// receives print lines.
func RegisterHostFns(ex *vm.Exec, now func() int64, logs *LogSet) {
	ex.RegisterHost("bro_print", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		var line []byte
		for i, a := range args {
			if i > 0 {
				line = append(line, ", "...)
			}
			line = appendHiltiOr(line, a, "<unset>")
		}
		_, _ = e.Out.Write(append(line, '\n')) // print has no error path, as in the interpreter
		return values.Nil, nil
	})
	ex.RegisterHost("bro_fmt", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		if len(args) == 0 {
			return values.String(""), nil
		}
		f := args[0].AsString()
		rest := args[1:]
		var out []byte
		ai := 0
		for i := 0; i < len(f); i++ {
			if f[i] != '%' || i+1 >= len(f) {
				out = append(out, f[i])
				continue
			}
			i++
			if f[i] == '%' {
				out = append(out, '%')
				continue
			}
			if ai < len(rest) {
				out = appendHiltiOr(out, rest[ai], "-")
				ai++
			}
		}
		return values.String(string(out)), nil
	})
	ex.RegisterHost("bro_cat", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		var out []byte
		for _, a := range args {
			out = appendHiltiOr(out, a, "-")
		}
		return values.String(string(out)), nil
	})
	ex.RegisterHost("bro_network_time", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		return values.TimeVal(now()), nil
	})
	// bro_log_write takes the stream and then either a struct (a record
	// variable) or, for a record literal, the literal's field list as a
	// *RecordType constant followed by one value per field. Both go to the
	// stream's row formatter as HILTI values: nothing is converted.
	ex.RegisterHost("bro_log_write", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		if logs == nil || len(args) < 2 {
			return values.Nil, nil
		}
		stream := args[0].AsString()
		switch args[1].K {
		case values.KindStruct:
			s := args[1].AsStruct()
			logs.writeHilti(stream, s.Def, s.Fields)
		case values.KindAny:
			rt, ok := args[1].O.(*RecordType)
			if !ok || len(rt.Fields) != len(args)-2 {
				return values.Nil, fmt.Errorf("bro_log_write: bad field list")
			}
			logs.writeHilti(stream, rt, args[2:])
		default:
			return values.Nil, fmt.Errorf("bro_log_write: not a record")
		}
		return values.Nil, nil
	})
}
