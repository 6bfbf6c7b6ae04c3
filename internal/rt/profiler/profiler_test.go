package profiler

import (
	"testing"
	"time"

	"hilti/internal/rt/metrics"
)

func TestStartStopAccumulates(t *testing.T) {
	var p Profiler
	p.Start()
	time.Sleep(2 * time.Millisecond)
	p.Stop()
	if p.Total() < time.Millisecond {
		t.Fatalf("total = %v", p.Total())
	}
	if p.Count() != 1 {
		t.Fatalf("count = %d", p.Count())
	}
}

func TestNestedOutermostMeasures(t *testing.T) {
	var p Profiler
	p.Start()
	p.Start()
	p.Stop()
	if p.Count() != 0 {
		t.Fatal("inner stop should not complete an interval")
	}
	p.Stop()
	if p.Count() != 1 {
		t.Fatalf("count = %d", p.Count())
	}
	p.Stop() // unbalanced: ignored
	if p.Count() != 1 {
		t.Fatal("unbalanced stop counted")
	}
}

func TestUpdates(t *testing.T) {
	var p Profiler
	p.Update(10)
	p.Update(5)
	if p.Updates() != 15 {
		t.Fatalf("updates = %d", p.Updates())
	}
}

func TestRegistryPublishes(t *testing.T) {
	r := NewRegistry()
	a := r.Get("parsing")
	if r.Get("parsing") != a {
		t.Fatal("registry should intern by name")
	}
	a.Start()
	a.Stop()
	r.Get("script").Update(7)
	reg := metrics.NewRegistry()
	r.PublishTo(reg, "test", "module", "M")
	if got := reg.Value(`hilti_profiler_intervals_total{name="parsing",module="M"}`); got != 1 {
		t.Fatalf("parsing intervals = %v", got)
	}
	if got := reg.Value(`hilti_profiler_updates_total{name="script",module="M"}`); got != 7 {
		t.Fatalf("script updates = %v", got)
	}
}
