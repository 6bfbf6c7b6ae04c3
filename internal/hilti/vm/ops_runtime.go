// Runtime-service instructions: timers and timer managers, channels,
// classifiers, overlays, callables, files, and profilers — the rows of
// Table 1 implemented by the runtime library and called out to from
// generated code (paper §5 "Runtime Library").

package vm

import (
	"errors"
	"fmt"

	"hilti/internal/hilti/ast"
	"hilti/internal/rt/channel"
	"hilti/internal/rt/classifier"
	"hilti/internal/rt/overlay"
	"hilti/internal/rt/timer"
	"hilti/internal/rt/values"
)

func asChannel(v values.Value) (*channel.Channel, error) {
	c, _ := v.O.(*channel.Channel)
	if c == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil channel reference"}
	}
	return c, nil
}

func asClassifier(v values.Value) (*classifier.Classifier, error) {
	c, _ := v.O.(*classifier.Classifier)
	if c == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil classifier reference"}
	}
	return c, nil
}

// errNoClassifierMatch is what every classifier.get miss raises, in every
// Exec. A miss is a rule table's common case (§6.3's default deny), and
// sharing one value is safe because nothing writes to an Exception after
// it is created.
var errNoClassifierMatch = &values.Exception{Name: "Hilti::IndexError", Msg: "no classifier match"}

// classifierGet matches key against cl, raising errNoClassifierMatch on a
// miss.
func classifierGet(cl *classifier.Classifier, key []values.Value) (values.Value, error) {
	v, err := cl.Get(key...)
	if errors.Is(err, classifier.ErrNoMatch) {
		return values.Nil, errNoClassifierMatch
	}
	if err != nil {
		return values.Nil, err
	}
	return v, nil
}

// pickClassifierGet selects execClassifierGet for a tuple-constructor
// key; any other key runs the row's fn.
func pickClassifierGet(srcs []src, _ dst) execFn {
	if srcs[1].kind == srcCtor {
		return execClassifierGet
	}
	return nil
}

// execClassifierGet is classifier.get on a tuple-constructor key: the
// elements are gathered into the operand scratch and matched in place, so
// a key that is only read is never built.
func execClassifierGet(ex *Exec, fr *Frame, in *Instr) int {
	cl, err := asClassifier(ex.get(fr, &in.srcs[0]))
	if err != nil {
		return ex.raiseErr(err)
	}
	v, err := classifierGet(cl, ex.operands(fr, in.srcs[1].subs))
	if err != nil {
		return ex.raiseErr(err)
	}
	ex.put(fr, in.d, v)
	return in.t1
}

func asTimerMgr(ex *Exec, v values.Value) (*timer.Mgr, error) {
	if v.IsNil() {
		return ex.GlobalTM, nil
	}
	m, _ := v.O.(*timer.Mgr)
	if m == nil {
		return nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil timer_mgr reference"}
	}
	return m, nil
}

var runtimeOps = []opRow{
	// --- timer management --------------------------------------------------------
	// timer_mgr.advance_global <time>: drives the Exec's global manager,
	// expiring container state (the firewall example's per-packet call).
	{name: "timer_mgr.advance_global", flags: opReenters, f1: func(ex *Exec, a values.Value) (values.Value, error) {
		ex.GlobalTM.Advance(timer.Time(a.AsTimeNs()))
		return values.Nil, nil
	}},
	{name: "timer_mgr.advance", flags: opReenters, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		m, err := asTimerMgr(ex, a)
		if err != nil {
			return values.Nil, err
		}
		m.Advance(timer.Time(b.AsTimeNs()))
		return values.Nil, nil
	}},
	{name: "timer_mgr.current", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		m, err := asTimerMgr(ex, a)
		if err != nil {
			return values.Nil, err
		}
		return values.TimeVal(int64(m.Now())), nil
	}},
	{name: "timer_mgr.expire", flags: opReenters, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		m, err := asTimerMgr(ex, a)
		if err != nil {
			return values.Nil, err
		}
		m.Expire(b.AsBool())
		return values.Nil, nil
	}},

	// timer.schedule <time> <func-name> <args-tuple>: schedule a function
	// call to the future on the global manager (HILTI timers execute
	// captured closures; the function-plus-arguments form is the callable).
	{name: "timer.schedule", flags: opRetains, lower: func(c *fnCompiler, in *ast.Instr) error {
		if len(in.Ops) != 3 || in.Ops[1].Kind != ast.FuncOp {
			return fmt.Errorf("timer.schedule needs time, function, args tuple")
		}
		timeSrc, err := c.srcOf(in.Ops[0])
		if err != nil {
			return err
		}
		argsSrc, err := c.srcOf(in.Ops[2])
		if err != nil {
			return err
		}
		ct := c.resolveCall(in.Ops[1].Name)
		d, err := c.dstOf(in.Target)
		if err != nil {
			return err
		}
		c.emit(Instr{exec: execTimerSchedule, d: d, srcs: []src{timeSrc, argsSrc}, aux: ct})
		return nil
	}},

	{name: "timer.cancel", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		t, _ := a.O.(*timer.Timer)
		if t != nil {
			t.Cancel()
		}
		return values.Nil, nil
	}},
	{name: "timer.update", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		t, _ := a.O.(*timer.Timer)
		if t != nil {
			t.Update(timer.Time(b.AsTimeNs()))
		}
		return values.Nil, nil
	}},

	// --- channel -------------------------------------------------------------------
	{name: "channel.write", flags: opRetains, f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		ch, err := asChannel(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Nil, ch.Write(b)
	}},
	{name: "channel.read", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		ch, err := asChannel(a)
		if err != nil {
			return values.Nil, err
		}
		return ch.Read()
	}},
	{name: "channel.try_read", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		ch, err := asChannel(a)
		if err != nil {
			return values.Nil, err
		}
		v, err := ch.TryRead()
		if errors.Is(err, channel.ErrWouldBlock) {
			return values.TupleVal(values.Bool(false), values.Nil), nil
		}
		if err != nil {
			return values.Nil, err
		}
		return values.TupleVal(values.Bool(true), v), nil
	}},
	{name: "channel.size", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		ch, err := asChannel(a)
		if err != nil {
			return values.Nil, err
		}
		return values.Int(int64(ch.Len())), nil
	}},

	// --- classifier ------------------------------------------------------------------
	// classifier.add <classifier> <rule-tuple> <value>: each rule element
	// becomes its natural matcher (nets by prefix, void as wildcard).
	{name: "classifier.add", flags: opRetains, f3: func(ex *Exec, a, b, c values.Value) (values.Value, error) {
		cl, err := asClassifier(a)
		if err != nil {
			return values.Nil, err
		}
		t := b.AsTuple()
		if t == nil {
			return values.Nil, &values.Exception{Name: "Hilti::TypeError", Msg: "classifier.add needs a rule tuple"}
		}
		return values.Nil, cl.AddValues(c, t.Elems...)
	}},
	{name: "classifier.compile", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		cl, err := asClassifier(a)
		if err != nil {
			return values.Nil, err
		}
		cl.Compile()
		return values.Nil, nil
	}},
	{name: "classifier.get", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		cl, err := asClassifier(a)
		if err != nil {
			return values.Nil, err
		}
		t := b.AsTuple()
		if t == nil {
			return values.Nil, &values.Exception{Name: "Hilti::TypeError", Msg: "classifier.get needs a key tuple"}
		}
		return classifierGet(cl, t.Elems)
	}, pick: pickClassifierGet},
	{name: "classifier.matches", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		cl, err := asClassifier(a)
		if err != nil {
			return values.Nil, err
		}
		t := b.AsTuple()
		if t == nil {
			return values.Nil, &values.Exception{Name: "Hilti::TypeError", Msg: "classifier.matches needs a key tuple"}
		}
		return values.Bool(cl.Matches(t.Elems...)), nil
	}},

	// --- overlay --------------------------------------------------------------------
	// overlay.get <overlay-type> <field> <bytes>: paper Figure 4.
	{name: "overlay.get", lower: func(c *fnCompiler, in *ast.Instr) error {
		if len(in.Ops) != 3 || in.Ops[0].Kind != ast.TypeOp || in.Ops[1].Kind != ast.FieldOp {
			return fmt.Errorf("overlay.get needs type, field, bytes")
		}
		t := in.Ops[0].Type
		if t.OverlayDef == nil {
			return fmt.Errorf("overlay.get: %s is not an overlay type", t)
		}
		ov := t.OverlayDef
		fieldIdx := ov.Index(in.Ops[1].Name)
		if fieldIdx < 0 {
			return fmt.Errorf("overlay %s has no field %q", ov.Name, in.Ops[1].Name)
		}
		s, err := c.srcOf(in.Ops[2])
		if err != nil {
			return err
		}
		d, err := c.dstOf(in.Target)
		if err != nil {
			return err
		}
		c.emit(Instr{exec: execOverlayGet, d: d, srcs: []src{s}, aux: ov, t2: fieldIdx})
		return nil
	}},

	// --- file ------------------------------------------------------------------------
	{name: "file.open", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		if ex.Files == nil {
			return values.Nil, &values.Exception{Name: "Hilti::IOError", Msg: "no file manager attached"}
		}
		f, err := ex.Files.Open(a.AsString())
		if err != nil {
			return values.Nil, err
		}
		return values.Ref(values.KindFile, f), nil
	}},
	{name: "file.write", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		f, _ := a.O.(interface{ WriteString(string) })
		if f == nil {
			return values.Nil, &values.Exception{Name: "Hilti::NullReference", Msg: "nil file reference"}
		}
		f.WriteString(values.Format(b))
		return values.Nil, nil
	}},

	// --- profiler ----------------------------------------------------------------------
	{name: "profiler.start", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		ex.Profs.Get(a.AsString()).Start()
		return values.Nil, nil
	}},
	{name: "profiler.stop", f1: func(ex *Exec, a values.Value) (values.Value, error) {
		ex.Profs.Get(a.AsString()).Stop()
		return values.Nil, nil
	}},
	{name: "profiler.update", f2: func(ex *Exec, a, b values.Value) (values.Value, error) {
		ex.Profs.Get(a.AsString()).Update(b.AsInt())
		return values.Nil, nil
	}},
}

func execTimerSchedule(ex *Exec, fr *Frame, in *Instr) int {
	at := timer.Time(ex.get(fr, &in.srcs[0]).AsTimeNs())
	argsV := ex.get(fr, &in.srcs[1])
	ct := in.aux.(*callTarget)
	var args []values.Value
	if t := argsV.AsTuple(); t != nil {
		args = append([]values.Value(nil), t.Elems...)
	}
	tm := ex.GlobalTM.ScheduleFunc(at, func() {
		if ct.fn != nil {
			ex.CallFn(ct.fn, args...) //nolint:errcheck // timers swallow exceptions, as HILTI's runtime does
		} else if ct.builtin != nil {
			ct.builtin(ex, args) //nolint:errcheck
		} else if hf := ex.hosts[ct.host]; hf != nil {
			hf(ex, args) //nolint:errcheck
		}
	})
	ex.put(fr, in.d, values.Ref(values.KindTimer, tm))
	return in.t1
}

// execOverlayGet decodes an overlay field.
func execOverlayGet(ex *Exec, fr *Frame, in *Instr) int {
	ov := in.aux.(*overlay.Overlay)
	b := ex.get(fr, &in.srcs[0]).AsBytes()
	if b == nil {
		return ex.raise("Hilti::NullReference", "nil bytes reference")
	}
	v, err := ov.GetIdx(b.Bytes(), in.t2)
	if err != nil {
		return ex.raise("Hilti::OverlayError", err.Error())
	}
	ex.put(fr, in.d, v)
	return in.t1
}
