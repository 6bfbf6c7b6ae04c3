package bro

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/pcap"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/rt/admission"
	"hilti/internal/rt/migrate"
)

func clusterCfg() Config {
	return Config{Parser: "standard", ScriptExec: "interp",
		Scripts: []string{HTTPScript, FilesScript, DNSScript}, Quiet: true}
}

// singleBaseline runs the whole trace through one engine and returns its
// canonical per-stream lines.
func singleBaseline(t *testing.T, pkts []pcap.Packet) map[string][]string {
	t.Helper()
	single, err := NewEngine(clusterCfg())
	if err != nil {
		t.Fatal(err)
	}
	single.ProcessTrace(pkts)
	out := map[string][]string{}
	for _, stream := range []string{"http", "files", "dns"} {
		out[stream] = SortedLines(single, stream)
	}
	return out
}

func assertClusterMatches(t *testing.T, label string, c *Cluster, want map[string][]string) {
	t.Helper()
	for stream, lines := range want {
		got := c.MergedLines(stream)
		if len(got) != len(lines) {
			t.Errorf("%s: %s.log has %d lines, single node %d", label, stream, len(got), len(lines))
			continue
		}
		for i := range lines {
			if got[i] != lines[i] {
				t.Errorf("%s: %s.log line %d differs:\n  got  %q\n  want %q",
					label, stream, i, got[i], lines[i])
				break
			}
		}
	}
}

// assertSingleOwner checks that every keyable flow in the trace has at
// most one owner across all instances.
func assertSingleOwner(t *testing.T, label string, c *Cluster, pkts []pcap.Packet) {
	t.Helper()
	seen := map[flow.Key]bool{}
	for i := range pkts {
		key, ok := flow.FromFrame(pkts[i].Data)
		if !ok {
			continue
		}
		ck, _ := key.Canonical()
		if seen[ck] {
			continue
		}
		seen[ck] = true
		owners, err := c.Owners(ck)
		if err != nil {
			t.Fatalf("%s: Owners(%v): %v", label, ck, err)
		}
		if len(owners) > 1 {
			t.Errorf("%s: flow %v owned by %v (split brain)", label, ck, owners)
		}
	}
}

// feedSlice feeds pkts[lo:hi] through the cluster router.
func feedSlice(t *testing.T, c *Cluster, pkts []pcap.Packet, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := c.Feed(pkts[i].Time.UnixNano(), pkts[i].Data); err != nil {
			t.Fatalf("feed %d: %v", i, err)
		}
	}
}

// TestClusterEquivalenceUnderMigration: two instances, live migrations
// interleaved with feeding, no faults — merged logs must be byte-identical
// to a single node and the ownership ledger must balance exactly.
func TestClusterEquivalenceUnderMigration(t *testing.T) {
	pkts := mergedTrace(t)
	want := singleBaseline(t, pkts)

	const label = "migration"
	c, err := NewCluster(clusterCfg(), ClusterConfig{
		Instances: 2, Buckets: 8,
		Pipeline: pipeline.Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	chunk := len(pkts) / 10
	handoffs := uint64(0)
	for lo := 0; lo < len(pkts); lo += chunk {
		hi := lo + chunk
		if hi > len(pkts) {
			hi = len(pkts)
		}
		feedSlice(t, c, pkts, lo, hi)
		b := rng.Intn(c.Table().Buckets())
		to := 1 - c.Table().OwnerOf(b)
		if err := c.MigrateBucket(b, to, nil); err != nil {
			t.Fatalf("%s: migrate bucket %d -> %d: %v", label, b, to, err)
		}
		handoffs++
	}
	assertSingleOwner(t, label, c, pkts)
	if err := c.CheckOwnership(); err != nil {
		t.Errorf("%s: mid-run: %v", label, err)
	}
	c.Close()
	assertClusterMatches(t, label, c, want)
	if err := c.CheckOwnership(); err != nil {
		t.Errorf("%s: after close: %v", label, err)
	}
	commits := c.Ledger().Instance(0).Commits + c.Ledger().Instance(1).Commits
	if commits != handoffs {
		t.Errorf("%s: %d handoffs committed, want %d", label, commits, handoffs)
	}
}

// TestClusterLiveMigrationWindow: packets flow between BeginMigration and
// Complete — the definition of *live* migration. The source keeps
// processing the bucket until Complete extracts it, byte-identically.
func TestClusterLiveMigrationWindow(t *testing.T) {
	pkts := mergedTrace(t)
	want := singleBaseline(t, pkts)

	c, err := NewCluster(clusterCfg(), ClusterConfig{
		Instances: 2, Buckets: 8,
		Pipeline: pipeline.Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	third := len(pkts) / 3
	feedSlice(t, c, pkts, 0, third)
	// Drain instance 0 one bucket at a time (the endpoint holds one
	// session), feeding a window of traffic between each Begin and
	// Complete.
	var mine []int
	for b := 0; b < c.Table().Buckets(); b++ {
		if c.Table().OwnerOf(b) == 0 {
			mine = append(mine, b)
		}
	}
	lo := third
	window := third / len(mine)
	for _, b := range mine {
		m, err := c.BeginMigration(b, 1, nil)
		if err != nil {
			t.Fatalf("begin bucket %d: %v", b, err)
		}
		feedSlice(t, c, pkts, lo, lo+window)
		lo += window
		if err := m.Complete(); err != nil {
			t.Fatalf("complete bucket %d: %v", b, err)
		}
	}
	if got := c.Table().Counts(2)[0]; got != 0 {
		t.Fatalf("instance 0 still owns %d buckets", got)
	}
	feedSlice(t, c, pkts, lo, len(pkts))
	assertSingleOwner(t, "live-window", c, pkts)
	c.Close()
	assertClusterMatches(t, "live-window", c, want)
	if err := c.CheckOwnership(); err != nil {
		t.Error(err)
	}
}

// stepFault injects one fault kind at one protocol step, either on the
// first attempt only (retries can recover) or on every attempt.
func stepFault(step migrate.Step, kind migrate.FaultKind, every bool) migrate.Injector {
	return migrate.InjectorFunc(func(s migrate.Step, attempt int) migrate.FaultKind {
		if s == step && (every || attempt == 0) {
			return kind
		}
		return migrate.FaultNone
	})
}

// TestClusterChaosEveryStep kills, stalls, and corrupts the handoff at
// every protocol step, with retries both able and unable to recover. In
// every single schedule the cluster must keep exactly one owner per flow
// and produce byte-identical logs — a faulted migration simply aborts
// (or, past the target's ack, resolves forward) and traffic keeps going.
func TestClusterChaosEveryStep(t *testing.T) {
	pkts := mergedTrace(t)
	want := singleBaseline(t, pkts)

	type schedule struct {
		name     string
		inj      migrate.Injector
		mayAbort bool // the schedule is allowed to abort the handoff
	}
	var scheds []schedule
	steps := []migrate.Step{migrate.StepBegin, migrate.StepTransfer, migrate.StepActivate, migrate.StepCommit}
	kinds := []migrate.FaultKind{migrate.FaultKill, migrate.FaultStall, migrate.FaultCorrupt}
	for _, st := range steps {
		for _, k := range kinds {
			scheds = append(scheds,
				schedule{fmt.Sprintf("%s/%s/once", st, k), stepFault(st, k, false), k == migrate.FaultKill},
				schedule{fmt.Sprintf("%s/%s/every", st, k), stepFault(st, k, true), true})
		}
	}

	for _, sc := range scheds {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			c, err := NewCluster(clusterCfg(), ClusterConfig{
				Instances: 2, Buckets: 8,
				Pipeline: pipeline.Config{Workers: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			half := len(pkts) / 2
			feedSlice(t, c, pkts, 0, half)
			committed, aborted := 0, 0
			for b := 0; b < c.Table().Buckets(); b++ {
				from := c.Table().OwnerOf(b)
				if err := c.MigrateBucket(b, 1-from, sc.inj); err != nil {
					aborted++
					if c.Table().OwnerOf(b) != from {
						t.Fatalf("bucket %d: aborted handoff flipped routing", b)
					}
				} else {
					committed++
					if c.Table().OwnerOf(b) == from {
						t.Fatalf("bucket %d: committed handoff did not flip routing", b)
					}
				}
			}
			if !sc.mayAbort && aborted > 0 {
				t.Errorf("%d handoffs aborted under a recoverable schedule", aborted)
			}
			assertSingleOwner(t, sc.name, c, pkts)
			if err := c.CheckOwnership(); err != nil {
				t.Errorf("mid-run ledger: %v", err)
			}
			feedSlice(t, c, pkts, half, len(pkts))
			c.Close()
			assertClusterMatches(t, sc.name, c, want)
			if err := c.CheckOwnership(); err != nil {
				t.Errorf("final ledger: %v", err)
			}
			t.Logf("%s: %d committed, %d aborted", sc.name, committed, aborted)
		})
	}
}

// TestClusterChaosRandomSchedules drives migrations under a seeded random
// fault schedule — faults land on arbitrary (step, attempt) pairs while
// packets keep flowing — and demands the same invariants as the
// exhaustive per-step matrix.
func TestClusterChaosRandomSchedules(t *testing.T) {
	pkts := mergedTrace(t)
	want := singleBaseline(t, pkts)

	for seed := int64(1); seed <= 3; seed++ {
		label := fmt.Sprintf("seed=%d", seed)
		rng := rand.New(rand.NewSource(seed))
		inj := migrate.InjectorFunc(func(s migrate.Step, attempt int) migrate.FaultKind {
			if rng.Intn(4) == 0 {
				return migrate.FaultKind(1 + rng.Intn(3))
			}
			return migrate.FaultNone
		})
		c, err := NewCluster(clusterCfg(), ClusterConfig{
			Instances: 3, Buckets: 8,
			Pipeline: pipeline.Config{Workers: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		chunk := len(pkts) / 8
		for lo := 0; lo < len(pkts); lo += chunk {
			hi := lo + chunk
			if hi > len(pkts) {
				hi = len(pkts)
			}
			feedSlice(t, c, pkts, lo, hi)
			b := rng.Intn(c.Table().Buckets())
			to := rng.Intn(c.Instances())
			if c.Table().OwnerOf(b) == to {
				continue
			}
			_ = c.MigrateBucket(b, to, inj) // aborts are expected and fine
		}
		assertSingleOwner(t, label, c, pkts)
		c.Close()
		assertClusterMatches(t, label, c, want)
		if err := c.CheckOwnership(); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
}

// TestClusterScaleOutIn grows the cluster mid-trace and shrinks it back,
// with the retired instance's logs still part of the merged output.
func TestClusterScaleOutIn(t *testing.T) {
	pkts := mergedTrace(t)
	want := singleBaseline(t, pkts)

	c, err := NewCluster(clusterCfg(), ClusterConfig{
		Instances: 2, Buckets: 8,
		Pipeline: pipeline.Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	third := len(pkts) / 3
	feedSlice(t, c, pkts, 0, third)
	id, err := c.ScaleOut(nil)
	if err != nil {
		t.Fatalf("scale out: %v", err)
	}
	if id != 2 || c.Instances() != 3 {
		t.Fatalf("scale out: instance %d, %d active", id, c.Instances())
	}
	counts := c.Table().Counts(3)
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("instance %d owns no buckets after scale-out: %v", i, counts)
		}
	}
	feedSlice(t, c, pkts, third, 2*third)
	if err := c.ScaleIn(nil); err != nil {
		t.Fatalf("scale in: %v", err)
	}
	if c.Instances() != 2 {
		t.Fatalf("scale in: %d active", c.Instances())
	}
	feedSlice(t, c, pkts, 2*third, len(pkts))
	assertSingleOwner(t, "scale", c, pkts)
	c.Close()
	assertClusterMatches(t, "scale", c, want)
	if err := c.CheckOwnership(); err != nil {
		t.Error(err)
	}
	// The cluster-wide packet ledger: every packet fed was offered to
	// exactly one instance, the retired one included, and processed there.
	ledgers := c.PacketLedgers()
	if len(ledgers) != 3 {
		t.Fatalf("%d packet ledgers, want 3 (retired instance included)", len(ledgers))
	}
	var offered, processed uint64
	for i, l := range ledgers {
		if !l.Balanced() {
			t.Errorf("instance %d packet ledger unbalanced: %+v", i, l)
		}
		offered += l.Offered
		processed += l.Fates[admission.FateProcessed]
	}
	if offered != uint64(len(pkts)) || processed != uint64(len(pkts)) {
		t.Errorf("instances offered %d and processed %d packets, fed %d", offered, processed, len(pkts))
	}
}

// TestClusterDiscardAfterInstall exercises the one path the coordinator
// cannot reach on its own: a session fully installed on the target whose
// commit never arrives (coordinator died after the activate ack but
// before the flip). AbortSession must discard the installed flows — safe
// because routing never flipped — leaving the source the sole owner.
func TestClusterDiscardAfterInstall(t *testing.T) {
	pkts := mergedTrace(t)
	want := singleBaseline(t, pkts)

	c, err := NewCluster(clusterCfg(), ClusterConfig{
		Instances: 2, Buckets: 8,
		Pipeline: pipeline.Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	half := len(pkts) / 2
	feedSlice(t, c, pkts, 0, half)

	// Pick a bucket instance 0 owns and hand-run the session up to the
	// activate ack, then kill the coordinator (no Commit, no flip).
	b := c.Table().BucketsOf(0)[0]
	src := c.insts[0].par
	slice, err := src.ExtractFlows(func(vid uint64) bool { return c.table.BucketOf(vid) == b })
	if err != nil {
		t.Fatal(err)
	}
	if slice.Empty() {
		t.Skip("bucket drew no flows; nothing to exercise")
	}
	blob, err := encodeWireSlice(slice)
	if err != nil {
		t.Fatal(err)
	}
	co := migrate.NewCoordinator(epTransport{c.insts[1].ep}, migrate.Options{ID: 999, Bucket: b})
	if err := co.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := co.Ship(blob); err != nil {
		t.Fatal(err)
	}
	if err := co.Activate(); err != nil {
		t.Fatal(err)
	}
	if id, installed := c.insts[1].ep.Session(); id != 999 || !installed {
		t.Fatalf("target session = (%d, %v), want (999, installed)", id, installed)
	}
	// Target-side handoff timeout: discard the orphaned install.
	c.insts[1].ep.AbortSession(999)
	assertSingleOwner(t, "discard", c, pkts)
	for i := range slice.Handler {
		owned, err := c.insts[1].par.OwnsFlow(slice.Handler[i].Key, slice.Handler[i].VID)
		if err != nil {
			t.Fatal(err)
		}
		if owned {
			t.Fatalf("target still owns %v after discard", slice.Handler[i].Key)
		}
	}
	feedSlice(t, c, pkts, half, len(pkts))
	c.Close()
	assertClusterMatches(t, "discard", c, want)
	if err := c.CheckOwnership(); err != nil {
		t.Error(err)
	}
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// TestClusterRefusesSecondSessionWhileInstalled: an installed-but-
// uncommitted session must block new Begins on the same target (the
// endpoint refuses), or two coordinators could double-own flows.
func TestClusterRefusesSecondSessionWhileInstalled(t *testing.T) {
	pkts := mergedTrace(t)
	c, err := NewCluster(clusterCfg(), ClusterConfig{
		Instances: 2, Buckets: 8,
		Pipeline: pipeline.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feedSlice(t, c, pkts, 0, len(pkts)/4)
	b := c.Table().BucketsOf(0)[0]
	slice, err := c.insts[0].par.ExtractFlows(func(vid uint64) bool { return c.table.BucketOf(vid) == b })
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeWireSlice(slice)
	if err != nil {
		t.Fatal(err)
	}
	co := migrate.NewCoordinator(epTransport{c.insts[1].ep}, migrate.Options{ID: 5001, Bucket: b})
	if err := co.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := co.Ship(blob); err != nil {
		t.Fatal(err)
	}
	if err := co.Activate(); err != nil {
		t.Fatal(err)
	}
	// A second handoff to the same target must be refused outright.
	if _, err := c.BeginMigration(c.Table().BucketsOf(0)[1], 1, nil); !errors.Is(err, migrate.ErrRefused) {
		t.Fatalf("second session error = %v, want ErrRefused", err)
	}
	c.insts[1].ep.AbortSession(5001)
}
