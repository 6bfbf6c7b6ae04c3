// Package fiber is the §5 fiber microbenchmark: a resumable execution
// context built from what Go offers in place of setcontext — a goroutine
// parked on a channel, whose stack is the frozen fiber state — measured by
// `hilti-bench -exp fibers`, BenchmarkFiber* and bench/'s fiber.switch_ns
// beside the paper's 55 ns switch. Nothing in the system runs on it:
// parsers park inside the VM, whose call stack is explicit (DESIGN.md "VM:
// calls and suspension"). The paper's free-list of fiber stacks has no
// counterpart: the Go runtime recycles finished goroutines itself, and a
// pool on top of that bought 7% on the lifecycle row.
package fiber

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrAborted is returned from Resume when the fiber was torn down via Abort.
var ErrAborted = errors.New("fiber: aborted")

// Func is the entry point executed inside a fiber. It receives the fiber
// (to yield through) and the value passed to the first Resume.
type Func func(f *Fiber, arg any) (any, error)

// msg crosses between host and fiber: a resume argument or an abort order
// one way; a yielded value, or the result or error that ends it, the other.
type msg struct {
	val         any
	err         error
	done, abort bool
}

// Fiber is a single resumable execution context.
type Fiber struct {
	resume, yield chan msg
	fn            Func
	started, done bool
}

type abortPanic struct{}

// New creates a fiber that will run fn when first resumed. The goroutine
// starts lazily, so unused fibers cost only the struct.
func New(fn Func) *Fiber {
	return &Fiber{resume: make(chan msg), yield: make(chan msg), fn: fn}
}

// Resume starts or continues the fiber, handing it arg (delivered as the
// result of the Yield it was parked on, or as the entry argument on first
// resume). It returns the value the fiber yields next, done=true with the
// final return value when the fiber finishes, or the fiber's error.
func (f *Fiber) Resume(arg any) (val any, done bool, err error) {
	if f.done {
		return nil, true, errors.New("fiber: resume after completion")
	}
	if f.started {
		f.resume <- msg{val: arg}
	} else {
		f.started = true
		go f.run(arg)
	}
	m := <-f.yield
	f.done = m.done
	return m.val, m.done, m.err
}

// Yield suspends the fiber, delivering val to the pending Resume, and
// blocks until resumed again, returning the resume argument. It must only
// be called from within the fiber's Func.
func (f *Fiber) Yield(val any) any {
	f.yield <- msg{val: val}
	m := <-f.resume
	if m.abort {
		panic(abortPanic{})
	}
	return m.val
}

// Abort tears down a suspended fiber: its goroutine unwinds (deferred
// functions run) and the fiber becomes unusable. Aborting an unstarted or
// finished fiber only marks it done.
func (f *Fiber) Abort() {
	if f.started && !f.done {
		f.resume <- msg{abort: true}
		<-f.yield // run reports completion
	}
	f.done = true
}

// Done reports whether the fiber has finished or been aborted.
func (f *Fiber) Done() bool { return f.done }

func (f *Fiber) run(arg any) {
	defer func() {
		if r := recover(); r != nil {
			err := ErrAborted
			if _, ok := r.(abortPanic); !ok {
				// The stack is captured here, inside the recovering frame.
				err = fmt.Errorf("fiber: panic: %v\n%s", r, debug.Stack())
			}
			f.yield <- msg{done: true, err: err}
		}
	}()
	ret, err := f.fn(f, arg)
	f.yield <- msg{val: ret, done: true, err: err}
}
