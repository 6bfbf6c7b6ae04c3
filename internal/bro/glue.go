// The Val<->HILTI conversion glue (paper §5 "Bro Interface"): because the
// engine represents values as Val instances everywhere, every boundary
// crossing into or out of HILTI-compiled code converts representations.
// The paper measures this glue separately in Figures 9/10 and notes a
// tightly integrated host would avoid it; the component clock charges
// conversions to its glue component so the harness reports the same split.

package bro

import (
	"fmt"
	"strings"

	"hilti/internal/hilti/vm"
	"hilti/internal/rt/container"
	"hilti/internal/rt/values"
)

// Glue converts between Val and HILTI values.
type Glue struct {
	clock  *compClock
	rtypes map[string]*RecordType // HILTI struct name -> record type
}

// NewGlue creates a glue layer charging conversions to clock.
func NewGlue(clock *compClock) *Glue {
	return &Glue{clock: clock, rtypes: map[string]*RecordType{}}
}

// toHilti converts a Val into a HILTI value. The caller brackets all the
// values it converts in one glue interval (dispatchNamed).
func (g *Glue) toHilti(v Val) values.Value {
	switch v := v.(type) {
	case nil:
		return values.Unset
	case BoolVal:
		return values.Bool(bool(v))
	case CountVal:
		return values.Int(int64(v))
	case IntVal:
		return values.Int(int64(v))
	case DoubleVal:
		return values.Double(float64(v))
	case StringVal:
		return values.String(string(v))
	case AddrVal:
		return v.A
	case SubnetVal:
		return v.N
	case PortVal:
		return values.PortVal(v.Num, v.Proto)
	case TimeVal:
		return values.TimeVal(int64(v))
	case IntervalVal:
		return values.IntervalVal(int64(v))
	case EnumVal:
		return values.String(v.Name)
	case *RecordVal:
		s := values.NewStruct(v.T.hiltiDef())
		for i, f := range v.F {
			if f != nil {
				s.Set(i, g.toHilti(f))
			}
		}
		return values.StructVal(s)
	case *VectorVal:
		vec := container.NewVector(values.Nil)
		for _, e := range v.Elems {
			vec.PushBack(g.toHilti(e))
		}
		return values.Ref(values.KindVector, vec)
	case *TableVal:
		if v.IsSet {
			set := container.NewSet()
			v.Each(func(key []Val, _ Val) bool {
				set.Insert(g.keyToHilti(key))
				return true
			})
			return values.Ref(values.KindSet, set)
		}
		m := container.NewMap()
		v.Each(func(key []Val, yield Val) bool {
			m.Insert(g.keyToHilti(key), g.toHilti(yield))
			return true
		})
		return values.Ref(values.KindMap, m)
	default:
		return values.Any(v)
	}
}

func (g *Glue) keyToHilti(key []Val) values.Value {
	if len(key) == 1 {
		return g.toHilti(key[0])
	}
	elems := make([]values.Value, len(key))
	for i, k := range key {
		elems[i] = g.toHilti(k)
	}
	return values.TupleVal(elems...)
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

// renderHilti renders a HILTI value the way the interpreter renders the
// corresponding Val, so compiled and interpreted output are directly
// comparable (Table 3).
func renderHilti(v values.Value) string {
	switch v.K {
	case values.KindBool:
		return BoolVal(v.AsBool()).Render()
	case values.KindDouble:
		return DoubleVal(v.AsDouble()).Render()
	case values.KindTime:
		return TimeVal(v.AsTimeNs()).Render()
	case values.KindInterval:
		return IntervalVal(v.AsIntervalNs()).Render()
	case values.KindStruct:
		s := v.AsStruct()
		var sb strings.Builder
		sb.WriteByte('[')
		for i, f := range s.Def.Fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteByte('=')
			if fv, set := s.Get(i); set {
				sb.WriteString(renderHilti(fv))
			} else {
				sb.WriteString("<unset>")
			}
		}
		sb.WriteByte(']')
		return sb.String()
	case values.KindVector:
		vec := v.O.(*container.Vector)
		var parts []string
		vec.Each(func(e values.Value) bool {
			parts = append(parts, renderHilti(e))
			return true
		})
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return values.Format(v)
	}
}

// RegisterHostFns wires the bro_* host functions that compiled scripts
// call: printing, formatting, logging, and network time. logWrite and now
// mirror the Interp fields; out receives print lines.
func RegisterHostFns(ex *vm.Exec, now func() int64,
	logWrite func(stream string, rec *RecordVal), glue *Glue) {

	ex.RegisterHost("bro_print", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = renderHilti(a)
		}
		fmt.Fprintln(e.Out, strings.Join(parts, ", "))
		return values.Nil, nil
	})
	ex.RegisterHost("bro_fmt", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		if len(args) == 0 {
			return values.String(""), nil
		}
		f := args[0].AsString()
		rest := args[1:]
		var sb strings.Builder
		ai := 0
		for i := 0; i < len(f); i++ {
			if f[i] != '%' || i+1 >= len(f) {
				sb.WriteByte(f[i])
				continue
			}
			i++
			if f[i] == '%' {
				sb.WriteByte('%')
				continue
			}
			if ai < len(rest) {
				if rest[ai].K == values.KindUnset {
					sb.WriteString("-")
				} else {
					sb.WriteString(renderHilti(rest[ai]))
				}
				ai++
			}
		}
		return values.String(sb.String()), nil
	})
	ex.RegisterHost("bro_cat", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(renderHilti(a))
		}
		return values.String(sb.String()), nil
	})
	ex.RegisterHost("bro_network_time", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		return values.TimeVal(now()), nil
	})
	ex.RegisterHost("bro_log_write", func(e *vm.Exec, args []values.Value) (values.Value, error) {
		if logWrite == nil || len(args) != 2 {
			return values.Nil, nil
		}
		stream := args[0].AsString()
		glue.clock.enter(compGlue)
		rec, ok := glue.fromHilti(args[1]).(*RecordVal)
		glue.clock.leave()
		if !ok {
			return values.Nil, fmt.Errorf("bro_log_write: not a record")
		}
		logWrite(stream, rec)
		return values.Nil, nil
	})
}
