// Builtins: the Hilti:: standard-library functions available to every
// program (paper Figure 3 uses Hilti::print), plus the scheduler bridge
// that backs thread.schedule.

package vm

import (
	"fmt"
	"strings"

	"hilti/internal/rt/threads"
	"hilti/internal/rt/values"
)

func builtins() map[string]HostFunc {
	return map[string]HostFunc{
		"Hilti::print": func(ex *Exec, args []values.Value) (values.Value, error) {
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = values.Format(a)
			}
			fmt.Fprintln(ex.Out, strings.Join(parts, " "))
			return values.Nil, nil
		},
		// Hilti::fmt formats a template string: %s substitutes the next
		// argument's display form, %% a literal percent.
		"Hilti::fmt": func(ex *Exec, args []values.Value) (values.Value, error) {
			if len(args) == 0 {
				return values.String(""), nil
			}
			tmpl := args[0].AsString()
			rest := args[1:]
			var sb strings.Builder
			ai := 0
			for i := 0; i < len(tmpl); i++ {
				if tmpl[i] == '%' && i+1 < len(tmpl) {
					i++
					switch tmpl[i] {
					case 's', 'd', 'v':
						if ai < len(rest) {
							sb.WriteString(values.Format(rest[ai]))
							ai++
						}
					case '%':
						sb.WriteByte('%')
					default:
						sb.WriteByte('%')
						sb.WriteByte(tmpl[i])
					}
					continue
				}
				sb.WriteByte(tmpl[i])
			}
			return values.String(sb.String()), nil
		},
		"Hilti::abort": func(ex *Exec, args []values.Value) (values.Value, error) {
			msg := "abort"
			if len(args) > 0 {
				msg = values.Format(args[0])
			}
			return values.Nil, &values.Exception{Name: "Hilti::Abort", Msg: msg}
		},
	}
}

// execKey caches the per-virtual-thread Exec inside a thread context.
const execKey = "hilti.exec"

// ExecForContext returns (creating on first use) the Exec owned by a
// virtual-thread context. Each virtual thread gets its own thread-local
// globals array and timer manager, per HILTI's isolation model.
func ExecForContext(ctx *threads.Context, prog *Program, sched *threads.Scheduler) (*Exec, error) {
	if e, ok := ctx.Host[execKey].(*Exec); ok && e.Prog == prog {
		return e, nil
	}
	e, err := NewExec(prog)
	if err != nil {
		return nil, err
	}
	e.GlobalTM = ctx.TimerMgr
	e.Sched = sched
	ctx.Host[execKey] = e
	return e, nil
}

// ScheduleCall enqueues an asynchronous invocation of the named function on
// virtual thread vid (HILTI's `thread.schedule foo(args) vid`), deep-copying
// the arguments per the message-passing isolation model.
func ScheduleCall(sched *threads.Scheduler, prog *Program, vid uint64, fn string, args ...values.Value) error {
	return sched.ScheduleValues(vid, func(ctx *threads.Context, cargs []values.Value) {
		ex, err := ExecForContext(ctx, prog, sched)
		if err != nil {
			return
		}
		ex.Call(fn, cargs...) //nolint:errcheck // uncaught exceptions terminate the vthread job
	}, args...)
}
