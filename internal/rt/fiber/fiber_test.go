package fiber

import (
	"errors"
	"strings"
	"testing"
)

func TestYieldResume(t *testing.T) {
	f := New(func(f *Fiber, arg any) (any, error) {
		sum := arg.(int)
		for i := 0; i < 3; i++ {
			got := f.Yield(sum)
			sum += got.(int)
		}
		return sum, nil
	})
	v, done, err := f.Resume(10)
	if err != nil || done || v.(int) != 10 {
		t.Fatalf("first: %v %v %v", v, done, err)
	}
	v, done, _ = f.Resume(1)
	if done || v.(int) != 11 {
		t.Fatalf("second: %v %v", v, done)
	}
	v, done, _ = f.Resume(2)
	if done || v.(int) != 13 {
		t.Fatalf("third: %v %v", v, done)
	}
	v, done, err = f.Resume(3)
	if !done || err != nil || v.(int) != 16 {
		t.Fatalf("final: %v %v %v", v, done, err)
	}
	if !f.Done() {
		t.Fatal("should be done")
	}
	if _, _, err := f.Resume(nil); err == nil {
		t.Fatal("resume after completion should error")
	}
}

func TestImmediateReturn(t *testing.T) {
	f := New(func(f *Fiber, arg any) (any, error) { return "ok", nil })
	v, done, err := f.Resume(nil)
	if !done || err != nil || v.(string) != "ok" {
		t.Fatalf("got %v %v %v", v, done, err)
	}
}

func TestErrorPropagation(t *testing.T) {
	want := errors.New("boom")
	f := New(func(f *Fiber, arg any) (any, error) { return nil, want })
	_, done, err := f.Resume(nil)
	if !done || !errors.Is(err, want) {
		t.Fatalf("got %v %v", done, err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	f := New(func(f *Fiber, arg any) (any, error) { panic("bad parse") })
	_, done, err := f.Resume(nil)
	if !done || err == nil {
		t.Fatalf("got %v %v", done, err)
	}
	// The error carries the panic value and the goroutine stack so fiber
	// faults are diagnosable.
	if !strings.Contains(err.Error(), "bad parse") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("stack not captured: %v", err)
	}
}

func TestAbortUnwindsDefers(t *testing.T) {
	cleaned := false
	f := New(func(f *Fiber, arg any) (any, error) {
		defer func() { cleaned = true }()
		f.Yield(nil)
		t.Error("should not continue past yield after abort")
		return nil, nil
	})
	f.Resume(nil)
	f.Abort()
	if !cleaned {
		t.Fatal("defers did not run on abort")
	}
	if !f.Done() {
		t.Fatal("aborted fiber should be done")
	}
}

func TestAbortUnstartedIsNoop(t *testing.T) {
	f := New(func(f *Fiber, arg any) (any, error) { return nil, nil })
	f.Abort()
	if !f.Done() {
		t.Fatal("should be done after abort")
	}
}

func TestIncrementalParserPattern(t *testing.T) {
	// The host-application pattern from the paper: feed chunks of payload
	// into a suspended parse, resuming as data arrives.
	var result []byte
	f := New(func(f *Fiber, arg any) (any, error) {
		buf := arg.([]byte)
		for len(result) < 10 {
			result = append(result, buf...)
			if len(result) < 10 {
				buf = f.Yield("need more").([]byte)
			}
		}
		return string(result), nil
	})
	status, done, _ := f.Resume([]byte("GET /"))
	if done || status.(string) != "need more" {
		t.Fatalf("expected suspension, got %v %v", status, done)
	}
	v, done, err := f.Resume([]byte("index"))
	if !done || err != nil || v.(string) != "GET /index" {
		t.Fatalf("got %v %v %v", v, done, err)
	}
}

// BenchmarkFiberSwitch reproduces the paper's §5 microbenchmark: context
// switches per second between existing fibers (paper: ~18M/s with
// setcontext; our goroutine handoff is measured for EXPERIMENTS.md).
func BenchmarkFiberSwitch(b *testing.B) {
	f := New(func(f *Fiber, arg any) (any, error) {
		for {
			f.Yield(nil)
		}
	})
	f.Resume(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Resume(nil)
	}
	b.StopTimer()
	f.Abort()
}

// BenchmarkFiberLifecycle reproduces the paper's create/start/finish/delete
// cycle measurement (paper: ~5M/s).
func BenchmarkFiberLifecycle(b *testing.B) {
	fn := func(f *Fiber, arg any) (any, error) { return nil, nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(fn).Resume(nil)
	}
}
