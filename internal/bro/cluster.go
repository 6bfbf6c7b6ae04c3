// Elastic cluster mode: several Parallel instances behind one
// consistent-hash routing table, with live flow-state migration between
// them (internal/rt/migrate). The cluster's Feed goroutine owns the
// routing table; a migration moves one bucket's flows from their current
// owner to another instance in two phases:
//
//	BeginMigration  — open the handoff session (a Begin frame). The
//	                  source keeps owning and processing the bucket.
//	Complete        — quiesce and extract the slice (each flow's one
//	                  frame plus its scheduling entry and quarantine
//	                  mark), ship it in the Activate frame the target
//	                  installs from, forget on the source, flip the
//	                  routing table.
//
// The routing flip is the commit point: until it happens no packet has
// ever been routed to the target for the migrating flows, so any failure
// at any step resolves by aborting the session — the source retains, the
// target discards — never split-brain, never double ownership. A kill
// after the target's activate ack resolves forward instead: the target
// owns the slice and the flip still happens.
//
// Everything an instance ships crosses the session as checksummed frames,
// so although the instances here share a process, the protocol is exactly
// what a socket transport would run between hosts.
package bro

import (
	"errors"
	"fmt"
	"sort"

	"hilti/internal/pkt/flow"
	"hilti/internal/pkt/pipeline"
	"hilti/internal/rt/migrate"
	"hilti/internal/rt/ruleplane"
)

// ClusterConfig sizes the cluster.
type ClusterConfig struct {
	Instances int // initial instance count (default 2)
	Buckets   int // routing buckets, power of two (default 32)
	// Pipeline configures every instance (Workers, StallTimeout, ...).
	Pipeline pipeline.Config
}

// Cluster is a set of Parallel instances plus the routing and migration
// machinery. All methods belong to one control goroutine — the same one
// that calls Feed — mirroring the single-producer contract of
// Pipeline.Feed.
type Cluster struct {
	cfg      Config
	ccfg     ClusterConfig
	insts    []*clusterInstance // every instance ever created; index = id
	n        int                // insts[:n] are active, the rest retired
	table    *migrate.Table
	ledger   *migrate.Ledger
	nextSess uint64
}

// clusterInstance is one instance and its handoff endpoint, whose Sink it
// is: inbound is the slice installed by the endpoint's open session, kept
// until the session is released (committed) or discarded.
type clusterInstance struct {
	id      int
	par     *Parallel
	ep      *migrate.Endpoint
	inbound *pipeline.FlowSlice
}

// NewCluster builds the initial instances and a balanced routing table.
func NewCluster(cfg Config, ccfg ClusterConfig) (*Cluster, error) {
	if ccfg.Instances <= 0 {
		ccfg.Instances = 2
	}
	if ccfg.Buckets <= 0 {
		ccfg.Buckets = 32
	}
	table, err := migrate.NewTable(ccfg.Buckets, ccfg.Instances)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, ccfg: ccfg, table: table, ledger: migrate.NewLedger()}
	for i := 0; i < ccfg.Instances; i++ {
		if _, err := c.newInstance(); err != nil {
			c.Close() //nolint:errcheck // already failing
			return nil, err
		}
	}
	c.n = ccfg.Instances
	return c, nil
}

func (c *Cluster) newInstance() (*clusterInstance, error) {
	pcfg := c.ccfg.Pipeline
	if len(c.insts) > 0 {
		// One registry cannot tell instances apart (worker keys repeat),
		// so only instance 0 reports; the rest run unobserved.
		pcfg.Metrics = nil
	}
	cfg := c.cfg
	if pcfg.Metrics == nil {
		cfg.Metrics = nil
	}
	par, err := NewParallelWith(cfg, pcfg)
	if err != nil {
		return nil, err
	}
	inst := &clusterInstance{id: len(c.insts), par: par}
	inst.ep = migrate.NewEndpoint(inst)
	c.insts = append(c.insts, inst)
	return inst, nil
}

// Instances returns the active instance count.
func (c *Cluster) Instances() int { return c.n }

// Table exposes the routing table (reads only; flips belong to Complete).
func (c *Cluster) Table() *migrate.Table { return c.table }

// Ledger exposes the migration ledger for invariant checks.
func (c *Cluster) Ledger() *migrate.Ledger { return c.ledger }

// PacketLedgers returns every instance's packet-fate ledger, retired
// instances included, indexed by instance id; exact once the cluster is
// closed.
func (c *Cluster) PacketLedgers() []pipeline.Ledger {
	out := make([]pipeline.Ledger, len(c.insts))
	for i, inst := range c.insts {
		out[i] = inst.par.Ledger()
	}
	return out
}

// RulePlane returns the cluster's shared rule plane, or nil when none is
// configured. Every instance's pipeline holds the same *ruleplane.Plane
// (NewParallelWith hoists cfg.RulePlane to each pipeline ingress), so one
// Swap reaches the whole cluster; note the shadow window drains across
// all instances' feeders, so ShadowPackets may exceed Window.
func (c *Cluster) RulePlane() *ruleplane.Plane { return c.insts[0].par.RulePlane() }

// Feed routes one frame to its flow's current owner. Unkeyable frames
// share virtual id 0, so they ride whichever instance owns its bucket —
// deterministically, like the pipeline's vthread 0.
func (c *Cluster) Feed(tsNs int64, frame []byte) error {
	var vid uint64
	if key, ok := flow.FromFrame(frame); ok {
		vid = key.Hash()
	}
	return c.insts[c.table.Owner(vid)].par.Feed(tsNs, frame)
}

// Close shuts every instance down, retired ones included (their logs are
// part of the cluster's output until collected).
func (c *Cluster) Close() {
	for _, inst := range c.insts {
		inst.par.Close()
	}
}

// MergedLines gathers one log stream across every instance (active and
// retired) in the same canonical order as Parallel.MergedLines, for
// byte-identical comparison against a single node.
func (c *Cluster) MergedLines(stream string) []string {
	var all []string
	for _, inst := range c.insts {
		all = append(all, inst.par.MergedLines(stream)...)
	}
	sort.Strings(all)
	return all
}

// Events sums event counts across all instances, net of the duplicate
// per-engine lifecycle events (one engine's worth is kept).
func (c *Cluster) Events() int {
	n := 0
	engines := 0
	for _, inst := range c.insts {
		for _, e := range inst.par.Engines {
			n += int(e.events.Load())
			engines++
		}
	}
	return n - (engines - 1)
}

// Owners returns the ids of every instance holding any state for the
// flow. The single-owner invariant demands len(Owners) <= 1 at every
// between-migrations point.
func (c *Cluster) Owners(key flow.Key) ([]int, error) {
	vid := key.Hash()
	var out []int
	for _, inst := range c.insts {
		owned, err := inst.par.OwnsFlow(key, vid)
		if err != nil {
			return nil, err
		}
		if owned {
			out = append(out, inst.id)
		}
	}
	return out, nil
}

// CheckOwnership verifies the exact ownership ledger on every instance:
// flows opened locally plus migrated in equal flows closed locally plus
// migrated out plus currently live.
func (c *Cluster) CheckOwnership() error {
	for _, inst := range c.insts {
		opened, closed, live, err := inst.flowCounts()
		if err != nil {
			return err
		}
		if err := c.ledger.CheckOwnership(inst.id, opened, closed, live); err != nil {
			return err
		}
	}
	return nil
}

// flowCounts sums the engine flow ledgers across an instance's workers.
// A live instance is quiesced first so the worker goroutines' writes are
// ordered before the read; a closed one is already final.
func (inst *clusterInstance) flowCounts() (opened, closed, live uint64, err error) {
	if _, qerr := inst.par.ExtractFlows(func(uint64) bool { return false }); qerr != nil && !errors.Is(qerr, pipeline.ErrClosed) {
		return 0, 0, 0, qerr
	}
	for _, e := range inst.par.Engines {
		o, cl, a := e.FlowCounts()
		opened += o
		closed += cl
		live += uint64(a)
	}
	return opened, closed, live, nil
}

// --- migration ------------------------------------------------------------------

// Migration is one in-flight bucket handoff between BeginMigration and
// Complete. The source keeps owning the bucket in between; the cluster
// may keep feeding packets.
type Migration struct {
	c        *Cluster
	bucket   int
	from, to int
	co       *migrate.Coordinator
	id       uint64
	done     bool
	err      error
}

func (m *Migration) match(vid uint64) bool { return m.c.table.BucketOf(vid) == m.bucket }

// BeginMigration opens a handoff session moving bucket b to instance
// `to`. Nothing ships yet: the source keeps processing the bucket until
// Complete. Any failure aborts the session cleanly: the source retains
// everything.
func (c *Cluster) BeginMigration(b, to int, inj migrate.Injector) (*Migration, error) {
	if b < 0 || b >= c.table.Buckets() {
		return nil, fmt.Errorf("bro: bucket %d out of range", b)
	}
	if to < 0 || to >= c.n {
		return nil, fmt.Errorf("bro: target instance %d not active", to)
	}
	from := c.table.OwnerOf(b)
	if from == to {
		return nil, fmt.Errorf("bro: bucket %d already on instance %d", b, to)
	}
	if id, _ := c.insts[to].ep.Session(); id != 0 {
		// The endpoint holds at most one session; a second Begin would
		// supersede the open one.
		return nil, fmt.Errorf("bro: instance %d already receiving handoff %d: %w", to, id, migrate.ErrRefused)
	}
	c.nextSess++
	m := &Migration{c: c, bucket: b, from: from, to: to, id: c.nextSess}
	m.co = migrate.NewCoordinator(epTransport{c.insts[to].ep}, migrate.Options{ID: m.id, Injector: inj})
	if err := m.co.Begin(); err != nil {
		return nil, m.fail(err)
	}
	return m, nil
}

// Complete finishes the handoff: quiesce and extract the slice, ship it
// in the Activate frame, forget on the source, flip the routing table, and
// record the ledger entry. After a nil return the target owns the bucket.
func (m *Migration) Complete() error {
	if m.done {
		return m.err
	}
	src := m.c.insts[m.from].par
	// The extract is both the quiesce barrier and the whole handoff: what
	// the target installs and what the source forgets at commit.
	slice, err := src.ExtractFlows(m.match)
	if err != nil {
		return m.fail(err)
	}
	if err := m.co.Activate(slice.Encode()); err != nil {
		return m.fail(err)
	}
	var forgetErr error
	m.co.Commit(func() error { //nolint:errcheck // Commit resolves forward
		forgetErr = src.ForgetFlows(slice)
		return forgetErr
	})
	m.c.table.Flip(m.bucket, m.to)
	m.c.ledger.Commit(m.from, m.to, len(slice.Handler))
	// The flip resolved the session; free the endpoint for the next one.
	tgt := m.c.insts[m.to]
	tgt.ep.ReleaseSession(m.id)
	tgt.inbound = nil
	m.done = true
	m.err = nil
	return forgetErr
}

// fail aborts the session on both sides and records the abort. The source
// never forgot anything, the target discards whatever it installed, and
// routing never flipped — the failed handoff is invisible except in the
// ledger's abort count.
func (m *Migration) fail(err error) error {
	m.done = true
	m.err = err
	m.co.Abort()
	m.c.insts[m.to].ep.AbortSession(m.id)
	m.c.ledger.Abort(m.from)
	return err
}

// MigrateBucket runs a whole handoff in one call.
func (c *Cluster) MigrateBucket(b, to int, inj migrate.Injector) error {
	m, err := c.BeginMigration(b, to, inj)
	if err != nil {
		return err
	}
	return m.Complete()
}

// ScaleOut adds one instance (reviving a drained retired one if present)
// and migrates buckets onto it until ownership is balanced. A failed
// bucket migration aborts cleanly and leaves that bucket where it was;
// the error is reported but the cluster stays consistent.
func (c *Cluster) ScaleOut(inj migrate.Injector) (int, error) {
	if c.n >= c.table.Buckets() {
		return -1, fmt.Errorf("bro: cannot exceed %d instances", c.table.Buckets())
	}
	if c.n >= len(c.insts) {
		if _, err := c.newInstance(); err != nil {
			return -1, err
		}
	}
	c.n++
	id := c.n - 1
	var errs []error
	for _, flip := range c.table.Rebalance(c.n) {
		if err := c.MigrateBucket(flip[0], flip[1], inj); err != nil {
			errs = append(errs, err)
		}
	}
	return id, errors.Join(errs...)
}

// ScaleIn drains the last instance, migrating its buckets to the rest,
// and retires it once it owns nothing. If any migration aborts, the
// instance keeps its remaining buckets and stays active.
func (c *Cluster) ScaleIn(inj migrate.Injector) error {
	if c.n <= 1 {
		return errors.New("bro: cannot scale below one instance")
	}
	var errs []error
	for _, flip := range c.table.Rebalance(c.n - 1) {
		if err := c.MigrateBucket(flip[0], flip[1], inj); err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if owned := c.table.BucketsOf(c.n - 1); len(owned) != 0 {
		return fmt.Errorf("bro: retiring instance still owns buckets %v", owned)
	}
	c.n--
	return nil
}

// epTransport delivers frames to an in-process endpoint. Every byte still
// crosses as an encoded, checksummed frame.
type epTransport struct{ ep *migrate.Endpoint }

func (t epTransport) Send(frame []byte) ([]byte, error) { return t.ep.Handle(frame), nil }

// --- target-side sink -----------------------------------------------------------

// Install applies a handoff's slice to the instance, all or nothing: any
// error forgets whatever it already touched, so the endpoint can refuse
// and the source retain.
func (inst *clusterInstance) Install(id uint64, blob []byte) (int, error) {
	slice, err := pipeline.DecodeFlowSlice(blob)
	if err != nil {
		return 0, err
	}
	if err := inst.par.InjectFlows(slice); err != nil {
		inst.par.ForgetFlows(slice) //nolint:errcheck // best-effort rollback
		return 0, err
	}
	inst.inbound = slice
	return len(slice.Handler), nil
}

// Discard forgets the installed slice of the session being aborted.
func (inst *clusterInstance) Discard(id uint64) {
	if inst.inbound != nil {
		inst.par.ForgetFlows(inst.inbound) //nolint:errcheck // best-effort by contract
		inst.inbound = nil
	}
}
