package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gspc/internal/lru"
	"gspc/internal/service"
	"gspc/internal/telemetry"
)

// ErrNoMembers reports that no routable member could serve a request:
// every node is dead or draining. HTTP maps it to 503.
var ErrNoMembers = errors.New("cluster: no routable member")

// ErrMemberBusy reports that a member's in-flight forward bound
// (Config.MaxInflight) is exhausted. It is backpressure, not evidence of
// failure: it never contributes a strike.
var ErrMemberBusy = errors.New("cluster: member at in-flight capacity")

// Config shapes a Coordinator. Members is the only required field.
type Config struct {
	// Name identifies this coordinator in logs and the
	// X-Gspc-Coordinator response header. Default "gspc-cluster".
	Name string
	// Members are the gspcd engines fronted by this coordinator. The
	// set is fixed for the coordinator's lifetime; health state decides
	// which members actually receive traffic.
	Members []MemberSpec
	// Vnodes is the virtual-node count per member (DefaultVnodes when 0).
	Vnodes int
	// Replication is how many ring successors receive a copy of each
	// freshly computed result, so an owner's death degrades to
	// replica-served reads. 0 disables replication. Default 1.
	Replication int
	// HealthInterval is the member health-check period. Default 2s.
	HealthInterval time.Duration
	// HealthTimeout caps one health check. Default 1s.
	HealthTimeout time.Duration
	// DeadAfter is how many consecutive refusal-class failures (health
	// probe or forward: connection refused, reset, EOF) kill a member. A
	// single blip suspects it; strikes clear on the next success.
	// Default 2.
	DeadAfter int
	// DeadAfterTimeout is how many consecutive failures of any class
	// kill a member when the refusal count alone hasn't. Timeout-class
	// failures (deadline exceeded, i/o timeout, black-holed link) are
	// weaker evidence — the member may be healthy behind a slow or lossy
	// link — so they get the larger budget. Default DeadAfter+1.
	DeadAfterTimeout int
	// ForwardTimeout caps one forwarded exchange (health checks are
	// separately capped by HealthTimeout). It is both the per-attempt
	// deadline inside the failover chain and the default Client timeout.
	// Default 2m — simulations can legitimately run for minutes, but an
	// exchange must never be unbounded. Negative disables.
	ForwardTimeout time.Duration
	// HedgeDelay is how long a run forward may dawdle at the key's owner
	// before the coordinator hedges with cache-only probes to the
	// replica-holding successors: if a follower already has the answer
	// cached, the client gets it without waiting out a slow owner, and
	// without risking a duplicate computation. Default 500ms. Negative
	// disables hedging.
	HedgeDelay time.Duration
	// MaxInflight bounds concurrently forwarded requests per member;
	// excess attempts fail fast with ErrMemberBusy and fall through to
	// the next candidate. Default 256. Negative disables the bound.
	MaxInflight int
	// ReplicateRetries is how many times a failed replica install is
	// retried (with exponential backoff from ReplicateBackoff) before
	// the copy is abandoned. Default 3.
	ReplicateRetries int
	// ReplicateBackoff is the initial retry backoff for replica
	// installs. Default 250ms.
	ReplicateBackoff time.Duration
	// Client performs forwarded requests and health checks. Default: a
	// client with ForwardTimeout as its overall timeout, so a forgotten
	// caller context can never pin a forward forever.
	Client *http.Client
	// Logger sinks coordinator operational logs. Default slog.Default().
	Logger *slog.Logger
	// FlightEvents sizes the coordinator's /debugz flight-recorder ring
	// of recent routing decisions. Default telemetry.DefaultFlightEvents;
	// negative disables the recorder.
	FlightEvents int
	// EventLogSize sizes the cluster event timeline ring
	// (/v1/cluster/events). Default telemetry.DefaultEventLogSize;
	// negative disables the timeline.
	EventLogSize int
	// EventLogPath, when set, makes the event timeline durable: events
	// append to this NDJSON file (bounded by compaction) and the cursor
	// resumes across coordinator restarts.
	EventLogPath string
	// DisableFederation turns off member /metrics scraping and the
	// /metrics/federate surface. Federation is on by default: one scrape
	// per member per health interval.
	DisableFederation bool
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "gspc-cluster"
	}
	if c.Vnodes <= 0 {
		c.Vnodes = DefaultVnodes
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.Replication < 0 {
		c.Replication = 0
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2
	}
	if c.DeadAfterTimeout <= 0 {
		c.DeadAfterTimeout = c.DeadAfter + 1
	}
	if c.ForwardTimeout == 0 {
		c.ForwardTimeout = 2 * time.Minute
	}
	if c.ForwardTimeout < 0 {
		c.ForwardTimeout = 0
	}
	if c.HedgeDelay == 0 {
		c.HedgeDelay = 500 * time.Millisecond
	}
	if c.HedgeDelay < 0 {
		c.HedgeDelay = 0
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.MaxInflight < 0 {
		c.MaxInflight = 0
	}
	if c.ReplicateRetries < 0 {
		c.ReplicateRetries = 0
	} else if c.ReplicateRetries == 0 {
		c.ReplicateRetries = 3
	}
	if c.ReplicateBackoff <= 0 {
		c.ReplicateBackoff = 250 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.ForwardTimeout}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.FlightEvents == 0 {
		c.FlightEvents = telemetry.DefaultFlightEvents
	}
	if c.FlightEvents < 0 {
		c.FlightEvents = 0
	}
	if c.EventLogSize == 0 {
		c.EventLogSize = telemetry.DefaultEventLogSize
	}
	if c.EventLogSize < 0 {
		c.EventLogSize = 0
	}
	return c
}

// fwdResult is a forwarded response: everything needed to replay it to
// the client (or to a coalesced waiter).
type fwdResult struct {
	status int
	header http.Header
	body   []byte
	// member served the request (nil when coalesced onto another
	// submitter's forward).
	member *Member
	// coalesced marks a response replayed from another submitter's
	// in-flight forward rather than forwarded itself.
	coalesced bool
}

// Coordinator fronts N gspcd engines: it owns the membership table, the
// consistent-hash ring over routable members, the cluster-level
// coalescing table, and the replication fan-out. NewServer exposes it
// over HTTP.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	members map[string]*Member
	names   []string // sorted member names, fixed at construction

	mu   sync.Mutex
	ring *Ring
	gen  int64 // ring generation, bumped on every rebuild

	// flights coalesces concurrent synchronous submits of one key onto
	// one forward. Budget 0: it deduplicates and retains nothing.
	flights *lru.Cache[string, *fwdResult]

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	start time.Time

	// Observability plane. flight is the /debugz ring of recent routing
	// decisions; events the typed cluster timeline (/v1/cluster/events);
	// traces the registry of coordinator-side runs keyed by qualified run
	// id, consulted when stitching /v1/runs/{id}/trace. The registry is
	// costed one per run and bounded at traceRegistryCap; Put keeps the
	// first registration, so a coalesced resubmit never replaces the run
	// that actually did the routing work.
	flight *telemetry.Flight
	events *telemetry.EventLog
	traces *lru.Cache[string, traceEntry]
	// spanSeq mints process-unique parent-span tokens propagated as
	// X-Gspc-Parent-Span on every forward.
	spanSeq atomic.Int64
	// fwdHist times forward exchanges per outcome class; the key set is
	// fixed at construction so exposition cardinality is bounded.
	fwdHist map[string]*telemetry.Histogram

	// Counters. Per-node vectors feed the gspc_cluster_* /metrics
	// families; scalars are atomics so the forward hot path never takes
	// the coordinator mutex.
	forwards        *telemetry.CounterVec // successful forwards by node
	forwardErrors   *telemetry.CounterVec // transport-failed forwards by node
	replicasByNode  *telemetry.CounterVec // replicas installed by follower node
	submits         atomic.Int64
	statusReads     atomic.Int64
	coalesced       atomic.Int64
	reroutes        atomic.Int64
	rebalances      atomic.Int64
	replications    atomic.Int64
	replicationErrs atomic.Int64
	replicationRtry atomic.Int64
	cacheProbeHits  atomic.Int64
	noMemberErrs    atomic.Int64
	forwardTimeouts atomic.Int64
	forwardRefusals atomic.Int64
	inflightRejects atomic.Int64
	hedges          atomic.Int64
	hedgeWins       atomic.Int64
	tracesStitched  atomic.Int64
	traceFallbacks  atomic.Int64
	federateScrapes atomic.Int64
	federateErrs    atomic.Int64
}

// Forward outcome classes: the label set of
// gspc_cluster_forward_duration_seconds and the "outcome" attribute on
// forward spans and correlated log lines. Closed by construction.
const (
	outcomeOK       = "ok"
	outcomeTimeout  = "timeout"
	outcomeRefused  = "refused"
	outcomeBusy     = "busy"
	outcomeHedgeWon = "hedge-won"
)

// outcomeClass maps a failed exchange to its outcome label.
func outcomeClass(err error) string {
	switch {
	case errors.Is(err, ErrMemberBusy):
		return outcomeBusy
	case timeoutClass(err):
		return outcomeTimeout
	default:
		return outcomeRefused
	}
}

// forwardDurationBounds buckets the forward-path latency histogram:
// sub-millisecond cache probes through multi-minute simulations
// (ForwardTimeout defaults to 2m).
var forwardDurationBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 10, 30, 120}

// New builds a coordinator over the given members. Call Start to begin
// health checking and Close to stop. The member set must be non-empty
// with unique names.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Members) == 0 {
		return nil, errors.New("cluster: at least one member required")
	}
	members := make(map[string]*Member, len(cfg.Members))
	names := make([]string, 0, len(cfg.Members))
	for _, spec := range cfg.Members {
		if spec.Name == "" || spec.URL == "" {
			return nil, fmt.Errorf("cluster: member needs both name and url, got %+v", spec)
		}
		if _, dup := members[spec.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate member name %q", spec.Name)
		}
		if _, err := url.Parse(spec.URL); err != nil {
			return nil, fmt.Errorf("cluster: member %s url: %v", spec.Name, err)
		}
		members[spec.Name] = newMember(spec)
		names = append(names, spec.Name)
	}
	sort.Strings(names)
	c := &Coordinator{
		cfg:            cfg,
		client:         cfg.Client,
		members:        members,
		names:          names,
		flights:        lru.New[string](0, func(*fwdResult) int64 { return 1 }),
		stop:           make(chan struct{}),
		start:          time.Now(),
		forwards:       telemetry.NewCounterVec(),
		forwardErrors:  telemetry.NewCounterVec(),
		replicasByNode: telemetry.NewCounterVec(),
		traces:         lru.New[string](traceRegistryCap, func(traceEntry) int64 { return 1 }),
		fwdHist: map[string]*telemetry.Histogram{
			outcomeOK:       telemetry.NewHistogram(forwardDurationBounds...),
			outcomeTimeout:  telemetry.NewHistogram(forwardDurationBounds...),
			outcomeRefused:  telemetry.NewHistogram(forwardDurationBounds...),
			outcomeBusy:     telemetry.NewHistogram(forwardDurationBounds...),
			outcomeHedgeWon: telemetry.NewHistogram(forwardDurationBounds...),
		},
	}
	if cfg.FlightEvents > 0 {
		c.flight = telemetry.NewFlight(cfg.FlightEvents)
	}
	if cfg.EventLogSize > 0 {
		events, err := telemetry.NewEventLog(cfg.EventLogSize, cfg.EventLogPath)
		if err != nil {
			// A broken durability path degrades to a memory-only timeline
			// rather than refusing to coordinate.
			cfg.Logger.Warn("cluster event log durability disabled",
				"coordinator", cfg.Name, "path", cfg.EventLogPath, "err", err)
		}
		c.events = events
	}
	c.ring = NewRing(cfg.Vnodes, names...)
	c.gen = 1
	return c, nil
}

// Start launches the health-check loop. It returns immediately; the
// first sweep runs synchronously so routing begins with fresh state.
func (c *Coordinator) Start() {
	c.CheckNow()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.CheckNow()
			case <-c.stop:
				return
			}
		}
	}()
}

// Close stops health checking and waits for in-flight replications.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.events.Close()
}

// CheckNow sweeps every member's /readyz once, synchronously, and
// rebuilds the ring if routability changed. The health loop calls it
// every interval; tests and the admin API call it to force convergence.
func (c *Coordinator) CheckNow() {
	changed := false
	for _, name := range c.names {
		m := c.members[name]
		before := m.snapshot()
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthTimeout)
		ready, info, err := checkMember(ctx, c.client, m)
		cancel()
		if m.applyCheck(ready, info, err, c.cfg.DeadAfter, c.cfg.DeadAfterTimeout) {
			changed = true
		}
		c.recordTransition(before, m.snapshot())
		if !c.cfg.DisableFederation {
			c.scrapeMember(m)
		}
	}
	if changed {
		c.rebuildRing()
	}
}

// recordTransition diffs two member snapshots around a health check and
// records the observed state and mem-rung transitions on the cluster
// timeline.
func (c *Coordinator) recordTransition(before, after MemberStatus) {
	if c.events == nil {
		return
	}
	name := after.Name
	if before.State != after.State {
		switch {
		case after.State == StateDead:
			c.events.Add(telemetry.EventMemberDead, name, "health check: "+after.LastError)
		case before.State == StateDead:
			c.events.Add(telemetry.EventMemberRevived, name, "health check succeeded")
			if after.State == StateDraining {
				c.events.Add(telemetry.EventDrainStart, name, "self-reported via /readyz")
			}
		case after.State == StateSuspect:
			c.events.Add(telemetry.EventMemberSuspected, name, "health check: "+after.LastError)
		case after.State == StateDraining:
			c.events.Add(telemetry.EventDrainStart, name, "self-reported via /readyz")
		case before.State == StateDraining:
			c.events.Add(telemetry.EventDrainEnd, name, "")
		case before.State == StateSuspect && after.State == StateAlive:
			c.events.Add(telemetry.EventMemberVindicated, name, "health check succeeded")
		}
	}
	if before.ReadyInfo.MemRungLevel != after.ReadyInfo.MemRungLevel {
		c.events.Add(telemetry.EventMemRungChange, name, fmt.Sprintf("rung %d -> %d (%s)",
			before.ReadyInfo.MemRungLevel, after.ReadyInfo.MemRungLevel, after.ReadyInfo.MemRung))
	}
}

// maxFederateBytes bounds one member /metrics scrape body.
const maxFederateBytes = 4 << 20

// scrapeMember pulls the member's /metrics for federation. Scrapes ride
// the health cadence and use the health budget; failures are recorded
// (age and ok-ness show in the federated meta series) but contribute no
// strikes — the /readyz check is the health signal, a slow exposition
// render is not.
func (c *Coordinator) scrapeMember(m *Member) {
	if !m.queryable() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.Spec.URL+"/metrics", nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.federateErrs.Add(1)
		m.setScrape(nil, err)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFederateBytes))
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	if err != nil {
		c.federateErrs.Add(1)
		m.setScrape(nil, err)
		return
	}
	c.federateScrapes.Add(1)
	m.setScrape(body, nil)
}

// rebuildRing recomputes the ring from the currently routable members.
// Consistent hashing bounds the fallout: only keys owned by the members
// that changed state move.
func (c *Coordinator) rebuildRing() {
	routable := make([]string, 0, len(c.names))
	for _, name := range c.names {
		if c.members[name].routable() {
			routable = append(routable, name)
		}
	}
	ring := NewRing(c.cfg.Vnodes, routable...)
	c.mu.Lock()
	c.ring = ring
	c.gen++
	gen := c.gen
	c.mu.Unlock()
	c.rebalances.Add(1)
	c.events.Add(telemetry.EventRingSwap, "",
		fmt.Sprintf("generation %d, %d/%d members routable", gen, len(routable), len(c.names)))
	c.cfg.Logger.Info("cluster ring rebuilt", "coordinator", c.cfg.Name,
		"generation", gen, "routable", len(routable), "members", len(c.names))
}

// currentRing returns the routing ring.
func (c *Coordinator) currentRing() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// ringState returns the routing ring together with its generation.
func (c *Coordinator) ringState() (*Ring, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring, c.gen
}

// candidates lists members to try for key, in order: the owner, then
// its replication-order successors (the nodes most likely to hold a
// replica), then every remaining routable member as a last resort.
func (c *Coordinator) candidates(key string) []*Member {
	ring := c.currentRing()
	names := ring.Owners(key, c.cfg.Replication+1)
	out := make([]*Member, 0, len(c.names))
	seen := make(map[string]bool, len(c.names))
	for _, n := range names {
		out = append(out, c.members[n])
		seen[n] = true
	}
	for _, n := range ring.Nodes() {
		if !seen[n] {
			out = append(out, c.members[n])
			seen[n] = true
		}
	}
	return out
}

// Member returns the member by name.
func (c *Coordinator) Member(name string) (*Member, bool) {
	m, ok := c.members[name]
	return m, ok
}

// Members snapshots every member, sorted by name.
func (c *Coordinator) Members() []MemberStatus {
	out := make([]MemberStatus, 0, len(c.names))
	for _, name := range c.names {
		out = append(out, c.members[name].snapshot())
	}
	return out
}

// Drain marks a member as draining via the admin API: it stops
// receiving new runs (its keys move to ring successors) but keeps
// answering status queries. Returns false for an unknown member.
func (c *Coordinator) Drain(name string) bool {
	m, ok := c.members[name]
	if !ok {
		return false
	}
	if m.setAdminDrain(true) {
		c.events.Add(telemetry.EventDrainStart, name, "admin API")
		c.rebuildRing()
	}
	return true
}

// Undrain reverses Drain.
func (c *Coordinator) Undrain(name string) bool {
	m, ok := c.members[name]
	if !ok {
		return false
	}
	if m.setAdminDrain(false) {
		c.events.Add(telemetry.EventDrainEnd, name, "admin API")
		c.rebuildRing()
	}
	return true
}

// forward performs one HTTP exchange with a member and captures the
// full response. A transport error (not an HTTP error status) is
// returned as err; HTTP-level failures are the member's answer and are
// relayed as-is. Each exchange is bounded by ForwardTimeout and claims
// one of the member's MaxInflight slots; any completed exchange (even a
// 5xx — the transport worked) clears the member's strikes.
//
// When ctx carries a telemetry.Run, the exchange records a per-attempt
// "forward" span (outcome class, status, span_id) and propagates the
// trace downstream as X-Gspc-Trace-Id/X-Gspc-Parent-Span, the parent
// token being this attempt's span_id — the member's engine adopts both,
// so the stitched trace hangs the member lane under this attempt.
// Timestamp echoes on the response feed the member's clock-offset
// estimator, and every exchange lands in the per-outcome forward
// duration histogram.
func (c *Coordinator) forward(ctx context.Context, m *Member, method, pathAndQuery string, body []byte, hdr map[string]string) (*fwdResult, error) {
	run := telemetry.FromContext(ctx)
	if max := c.cfg.MaxInflight; max > 0 {
		if !m.acquire(int64(max)) {
			c.inflightRejects.Add(1)
			c.fwdHist[outcomeBusy].Observe(0)
			now := time.Now()
			run.Record("forward", "cluster", now, now,
				telemetry.String("node", m.Spec.Name),
				telemetry.String("outcome", outcomeBusy))
			return nil, fmt.Errorf("%w: %s", ErrMemberBusy, m.Spec.Name)
		}
		defer m.release()
	}
	if c.cfg.ForwardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.ForwardTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.Spec.URL+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Gspc-Coordinator", c.cfg.Name)
	var sp *telemetry.Span
	if run != nil {
		tok := fmt.Sprintf("%s/f%d", run.TraceID, c.spanSeq.Add(1))
		req.Header.Set(service.HeaderTraceID, run.TraceID)
		req.Header.Set(service.HeaderParentSpan, tok)
		sp = run.Start("forward", "cluster",
			telemetry.String("node", m.Spec.Name),
			telemetry.String("method", method),
			telemetry.String("span_id", tok))
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		class := outcomeClass(err)
		c.fwdHist[class].Observe(time.Since(t0).Seconds())
		sp.Attr(telemetry.String("outcome", class)).End()
		c.forwardErrors.Add(m.Spec.Name, 1)
		return nil, err
	}
	t3 := time.Now()
	sampleClock(m, t0, t3, resp.Header)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		class := outcomeClass(err)
		c.fwdHist[class].Observe(time.Since(t0).Seconds())
		sp.Attr(telemetry.String("outcome", class)).End()
		c.forwardErrors.Add(m.Spec.Name, 1)
		return nil, err
	}
	c.fwdHist[outcomeOK].Observe(time.Since(t0).Seconds())
	sp.Attr(telemetry.String("outcome", outcomeOK),
		telemetry.Int("status", int64(resp.StatusCode))).End()
	c.forwards.Add(m.Spec.Name, 1)
	if m.clearStrikes() {
		c.events.Add(telemetry.EventMemberVindicated, m.Spec.Name, "forward succeeded")
		c.cfg.Logger.Info("member vindicated by successful forward",
			"coordinator", c.cfg.Name, "node", m.Spec.Name,
			"trace_id", traceIDOf(run), "outcome", outcomeOK)
	}
	return &fwdResult{status: resp.StatusCode, header: resp.Header, body: b, member: m}, nil
}

// traceIDOf extracts a possibly-nil run's trace id for log correlation.
func traceIDOf(run *telemetry.Run) string {
	if run == nil {
		return ""
	}
	return run.TraceID
}

// failMember folds one transport-level forward failure into the
// member's strike accounting: a first blip merely suspects it (it stays
// on the ring — one dropped packet must not eject a healthy owner);
// crossing a strike limit kills it and routes around. Backpressure
// rejections and caller cancellations are not evidence and are skipped.
// The ctx correlates the log lines and timeline events with the
// distributed trace of the request that observed the failure.
func (c *Coordinator) failMember(ctx context.Context, m *Member, err error) {
	if errors.Is(err, ErrMemberBusy) || errors.Is(err, context.Canceled) {
		return
	}
	timeout := timeoutClass(err)
	if timeout {
		c.forwardTimeouts.Add(1)
	} else {
		c.forwardRefusals.Add(1)
	}
	class := outcomeClass(err)
	traceID := traceIDOf(telemetry.FromContext(ctx))
	c.flight.Add(telemetry.Event{Type: "forward-failed", TraceID: traceID,
		Detail: m.Spec.Name + " " + class + ": " + err.Error()})
	suspected, died := m.strike(timeout, err, c.cfg.DeadAfter, c.cfg.DeadAfterTimeout)
	if suspected {
		c.events.Add(telemetry.EventMemberSuspected, m.Spec.Name, "failed forward ("+class+"): "+err.Error())
		c.cfg.Logger.Warn("member suspected after failed forward",
			"coordinator", c.cfg.Name, "node", m.Spec.Name,
			"trace_id", traceID, "outcome", class, "err", err)
	}
	if died {
		c.events.Add(telemetry.EventMemberDead, m.Spec.Name, "failed forward ("+class+"): "+err.Error())
		c.cfg.Logger.Warn("member marked dead after failed forward",
			"coordinator", c.cfg.Name, "node", m.Spec.Name,
			"trace_id", traceID, "outcome", class, "err", err)
		c.rebuildRing()
	}
}

// forwardRun routes one run submission: cache-first probes when the
// owner is saturated, then the candidate chain with failover, hedging
// each attempt with replica cache probes when the member is slow. The
// returned result may be any HTTP status — a member's 4xx/5xx is its
// answer and propagates to the client untouched.
func (c *Coordinator) forwardRun(ctx context.Context, key string, rawQuery string, body []byte) (*fwdResult, error) {
	run := telemetry.FromContext(ctx)
	_, gen := c.ringState()
	cands := c.candidates(key)
	if len(cands) == 0 {
		c.noMemberErrs.Add(1)
		return nil, ErrNoMembers
	}
	// The route decision and the health state it was made under, as
	// zero-length marker spans on the coordinator lane.
	if run != nil {
		now := time.Now()
		run.Record("route", "cluster", now, now,
			telemetry.String("key", key),
			telemetry.String("owner", cands[0].Spec.Name),
			telemetry.Int("ring_generation", gen),
			telemetry.Int("candidates", int64(len(cands))))
		attrs := make([]telemetry.Attr, 0, len(c.names))
		for _, st := range c.Members() {
			attrs = append(attrs, telemetry.String(st.Name, string(st.State)))
		}
		run.Record("health-snapshot", "cluster", now, now, attrs...)
	}
	c.flight.Add(telemetry.Event{Type: "route", TraceID: traceIDOf(run),
		Detail: fmt.Sprintf("key=%s owner=%s gen=%d", key, cands[0].Spec.Name, gen)})
	path := "/v1/runs"
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	// Load-aware degrade: a saturated owner keeps its keys (stickiness
	// is what makes coalescing work), but before queueing more onto it
	// the coordinator asks the replica-holding successors whether the
	// answer is already cached somewhere cheaper.
	if cands[0].saturated() {
		for _, m := range cands[1:] {
			if !m.routable() {
				continue
			}
			res, err := c.forward(ctx, m, http.MethodPost, path, body,
				map[string]string{"X-Gspc-Cache-Only": "1"})
			if err != nil {
				c.failMember(ctx, m, err)
				continue
			}
			if res.status == http.StatusOK {
				c.cacheProbeHits.Add(1)
				c.flight.Add(telemetry.Event{Type: "cache-probe-hit", TraceID: traceIDOf(run),
					Detail: m.Spec.Name})
				return res, nil
			}
		}
	}
	var lastErr error
	for i, m := range cands {
		if !m.routable() {
			continue
		}
		if i > 0 {
			c.reroutes.Add(1)
		}
		res, err := c.forwardRunOnce(ctx, m, cands, path, body)
		if err != nil {
			if ctx.Err() != nil {
				// The client went away; don't blame the member.
				return nil, ctx.Err()
			}
			lastErr = err
			c.failMember(ctx, m, err)
			continue
		}
		return res, nil
	}
	c.noMemberErrs.Add(1)
	if lastErr != nil {
		return nil, fmt.Errorf("%w (last error: %v)", ErrNoMembers, lastErr)
	}
	return nil, ErrNoMembers
}

// forwardRunOnce forwards a run submission to one member, hedging when
// the member dawdles: after HedgeDelay without an answer, the
// coordinator probes the other candidates cache-only. A replica that
// already holds the result answers the client immediately; the slow
// owner's forward is then abandoned (the owner finishes and caches on
// its own schedule). Hedges are cache probes, never duplicate
// submissions, so the at-most-one-simulation coalescing guarantee
// survives hedging.
func (c *Coordinator) forwardRunOnce(ctx context.Context, m *Member, cands []*Member, path string, body []byte) (*fwdResult, error) {
	if c.cfg.HedgeDelay <= 0 || len(cands) <= 1 {
		return c.forward(ctx, m, http.MethodPost, path, body, nil)
	}

	start := time.Now()
	type outcome struct {
		res *fwdResult
		err error
	}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	primary := make(chan outcome, 1)
	go func() {
		res, err := c.forward(pctx, m, http.MethodPost, path, body, nil)
		primary <- outcome{res, err}
	}()

	delay := time.NewTimer(c.cfg.HedgeDelay)
	defer delay.Stop()
	select {
	case o := <-primary:
		return o.res, o.err
	case <-ctx.Done():
		o := <-primary // forward honors ctx, so this wait is bounded
		return o.res, o.err
	case <-delay.C:
	}

	// The owner is slow. Ask the replica-holding candidates whether the
	// answer is already cached; first hit wins the race against the
	// owner. Probe failures strike the probed member as usual (a
	// partitioned follower is real evidence) except when the hedge was
	// cancelled because the owner answered first.
	c.hedges.Add(1)
	run := telemetry.FromContext(ctx)
	hsp := run.Start("hedge", "cluster", telemetry.String("owner", m.Spec.Name))
	c.flight.Add(telemetry.Event{Type: "hedge", TraceID: traceIDOf(run),
		Detail: "owner " + m.Spec.Name + " slow, probing replicas"})
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hedged := make(chan *fwdResult, 1)
	go func() {
		for _, f := range cands {
			if f == m || !f.routable() {
				continue
			}
			res, err := c.forward(hctx, f, http.MethodPost, path, body,
				map[string]string{"X-Gspc-Cache-Only": "1"})
			if err != nil {
				if hctx.Err() == nil {
					c.failMember(hctx, f, err)
				}
				continue
			}
			if res.status == http.StatusOK {
				select {
				case hedged <- res:
				default:
				}
				return
			}
		}
	}()

	select {
	case o := <-primary:
		hsp.Attr(telemetry.String("winner", "owner")).End()
		return o.res, o.err
	case res := <-hedged:
		c.hedgeWins.Add(1)
		c.fwdHist[outcomeHedgeWon].Observe(time.Since(start).Seconds())
		winner := res.nodeName()
		hsp.Attr(telemetry.String("winner", "replica"),
			telemetry.String("node", winner)).End()
		c.flight.Add(telemetry.Event{Type: "hedge-win", TraceID: traceIDOf(run), Detail: winner})
		c.cfg.Logger.Info("hedged forward won by replica",
			"coordinator", c.cfg.Name, "node", winner, "owner", m.Spec.Name,
			"run_id", res.header.Get("X-Gspc-Run"), "trace_id", traceIDOf(run),
			"outcome", outcomeHedgeWon)
		pcancel() // abandon the slow owner; its goroutine drains into the buffered chan
		return res, nil
	case <-ctx.Done():
		hsp.Attr(telemetry.String("winner", "cancelled")).End()
		o := <-primary
		return o.res, o.err
	}
}

// submitSync coalesces cluster-wide: concurrent synchronous submitters
// of the same key — whichever coordinator connection they arrived on —
// share one forwarded computation. The leader forwards; followers
// replay its captured response, marked X-Gspc-Cluster-Coalesced. When
// the leader's forward fails outright, the still-waiting followers
// elect one new leader among themselves rather than each forwarding.
func (c *Coordinator) submitSync(ctx context.Context, key string, rawQuery string, body []byte) (*fwdResult, error) {
	start := time.Now()
	res, out, err := c.flights.Get(ctx, key, func(ctx context.Context) (*fwdResult, error) {
		return c.forwardRun(ctx, key, rawQuery, body)
	})
	run := telemetry.FromContext(ctx)
	switch out {
	case lru.Coalesced:
		c.coalesced.Add(1)
		run.Record("coalesced-wait", "cluster", start, time.Now(),
			telemetry.String("key", key), telemetry.String("outcome", "replayed"))
		c.flight.Add(telemetry.Event{Type: "coalesced", TraceID: traceIDOf(run), Detail: key})
		return &fwdResult{status: res.status, header: res.header, body: res.body, coalesced: true}, nil
	case lru.Cancelled:
		run.Record("coalesced-wait", "cluster", start, time.Now(),
			telemetry.String("key", key), telemetry.String("outcome", "cancelled"))
	}
	return res, err
}

// replicate copies a freshly computed result onto the key's ring
// successors (skipping the node that computed it), asynchronously — a
// slow follower never holds up the client's reply. Transient install
// failures retry with exponential backoff (ReplicateRetries times from
// ReplicateBackoff) before the copy is abandoned; abandonment is
// counted and logged but otherwise tolerated — replication is a
// degradation hedge, not a durability guarantee (each node's WAL
// provides that).
// The run (when non-nil) collects per-follower "replicate" spans —
// recorded after the client's reply went out, which is fine: the trace
// is only exported when read — and correlates the replication log lines
// with the distributed trace.
func (c *Coordinator) replicate(run *telemetry.Run, key, experiment, runID string, body []byte, computedBy string) {
	if c.cfg.Replication <= 0 {
		return
	}
	followers := c.currentRing().Owners(key, c.cfg.Replication+1)
	for _, name := range followers {
		if name == computedBy {
			continue
		}
		m := c.members[name]
		if !m.routable() {
			continue
		}
		c.wg.Add(1)
		go func(m *Member) {
			defer c.wg.Done()
			rsp := run.Start("replicate", "cluster",
				telemetry.String("node", m.Spec.Name),
				telemetry.String("run_id", runID))
			backoff := c.cfg.ReplicateBackoff
			var lastErr error
			attempts := 0
			for attempt := 0; attempt <= c.cfg.ReplicateRetries; attempt++ {
				if attempt > 0 {
					c.replicationRtry.Add(1)
					t := time.NewTimer(backoff)
					select {
					case <-t.C:
					case <-c.stop:
						t.Stop()
						c.replicationErrs.Add(1)
						rsp.Attr(telemetry.String("outcome", "shutdown")).End()
						return
					}
					backoff *= 2
					if !m.queryable() {
						// The member died while we backed off; its health-loop
						// revival will not bring this copy back — give up.
						break
					}
				}
				attempts++
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if run != nil {
					// Propagate the trace onto the replica PUT so the member's
					// access log correlates even though no job is created.
					ctx = telemetry.NewContext(ctx, run)
				}
				res, err := c.forward(ctx, m, http.MethodPut, "/v1/replicas/"+key, body,
					map[string]string{"X-Gspc-Experiment": experiment, "X-Gspc-Run": runID})
				cancel()
				if err == nil && res.status != http.StatusNoContent {
					err = fmt.Errorf("replica install status %d", res.status)
				}
				if err == nil {
					c.replications.Add(1)
					c.replicasByNode.Add(m.Spec.Name, 1)
					rsp.Attr(telemetry.String("outcome", outcomeOK),
						telemetry.Int("attempts", int64(attempts))).End()
					return
				}
				lastErr = err
			}
			c.replicationErrs.Add(1)
			rsp.Attr(telemetry.String("outcome", "abandoned"),
				telemetry.Int("attempts", int64(attempts))).End()
			c.events.Add(telemetry.EventReplicationExhausted, m.Spec.Name,
				fmt.Sprintf("key=%s run=%s after %d attempts: %v", key, runID, attempts, lastErr))
			c.flight.Add(telemetry.Event{Type: "replication-abandoned", RunID: runID,
				TraceID: traceIDOf(run), Detail: m.Spec.Name + ": " + fmt.Sprint(lastErr)})
			outcome := outcomeRefused
			if lastErr != nil {
				outcome = outcomeClass(lastErr)
			}
			c.cfg.Logger.Warn("replication abandoned", "coordinator", c.cfg.Name,
				"node", m.Spec.Name, "key", key, "run_id", runID,
				"trace_id", traceIDOf(run), "outcome", outcome,
				"attempts", c.cfg.ReplicateRetries+1, "err", lastErr)
		}(m)
	}
}

// forwardQuery routes a read (status, trace) to a specific member,
// requiring only queryability: draining members still answer for their
// runs. Dead members yield ErrNoMembers (HTTP 503, not 404 — the run
// may well exist, its node is just unreachable).
func (c *Coordinator) forwardQuery(ctx context.Context, node, pathAndQuery string) (*fwdResult, error) {
	m, ok := c.members[node]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown member %q", node)
	}
	if !m.queryable() {
		return nil, fmt.Errorf("%w: member %s is down", ErrNoMembers, node)
	}
	res, err := c.forward(ctx, m, http.MethodGet, pathAndQuery, nil, nil)
	if err != nil {
		c.failMember(ctx, m, err)
		return nil, fmt.Errorf("%w: member %s unreachable: %v", ErrNoMembers, node, err)
	}
	return res, nil
}

// forwardAny routes a read to any routable (or failing that, queryable)
// member — used for /v1/experiments, which every node answers
// identically.
func (c *Coordinator) forwardAny(ctx context.Context, pathAndQuery string) (*fwdResult, error) {
	tried := map[string]bool{}
	for _, pick := range []func(*Member) bool{(*Member).routable, (*Member).queryable} {
		for _, name := range c.names {
			m := c.members[name]
			if tried[name] || !pick(m) {
				continue
			}
			tried[name] = true
			res, err := c.forward(ctx, m, http.MethodGet, pathAndQuery, nil, nil)
			if err != nil {
				c.failMember(ctx, m, err)
				continue
			}
			return res, nil
		}
	}
	c.noMemberErrs.Add(1)
	return nil, ErrNoMembers
}
