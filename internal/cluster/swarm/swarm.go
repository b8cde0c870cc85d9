// Package swarm is a seeded load-and-chaos driver for a gspc cluster:
// it boots N in-process gspcd engines behind real TCP listeners, fronts
// them with a coordinator, and hammers the cluster with a randomized
// schedule of submissions, status polls, node kills, restarts, drains
// and undrains. Every decision flows from one seed, so a failing
// schedule replays exactly.
//
// The harness asserts the cluster's two durability-facing contracts:
//
//   - Every acknowledged run stays visible with a consistent status:
//     once a poll observes a terminal status (done/failed/cancelled),
//     later polls must agree, byte-identical result included; a 404 for
//     an acknowledged id is a violation at any point. Transient 5xx
//     while a member is down is allowed — loss and inconsistency are not.
//   - Coalescing holds under stable membership: a fresh key submitted
//     concurrently through the coordinator simulates exactly once
//     cluster-wide, proven by a per-key simulation counter inside the
//     stub runner.
//   - The observability plane is complete for acknowledged work: after
//     quiesce, every acked run that reached done serves a stitched
//     coordinator+member trace through the coordinator — both lanes
//     present, timestamps clock-corrected and non-negative, no orphan
//     spans when the member adopted the propagated trace id. A missing
//     member trace is tolerated only when the schedule killed nodes (a
//     job resubmitted from the WAL after a kill reruns untraced).
//
// The cmd/gspc-swarm binary wraps this package; TestSwarmChaos runs it
// under -race in CI.
package swarm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gspc/internal/cluster"
	"gspc/internal/faultinject"
	"gspc/internal/harness"
	"gspc/internal/membudget"
	"gspc/internal/service"
	"gspc/internal/telemetry"
)

// Config shapes one swarm run. The zero value gets usable defaults.
type Config struct {
	// Nodes is the gspcd engine count. Default 3.
	Nodes int
	// Seed drives every random decision. Default 1.
	Seed int64
	// Ops is the chaos-schedule length. Default 200. Keep it well under
	// the engines' KeepFinished horizon (1024) or old acknowledged runs
	// are legitimately evicted and read as false losses.
	Ops int
	// Replication is the coordinator's replica fan-out. Default 1.
	Replication int
	// DataRoot holds one WAL directory per node. Empty: a temp dir,
	// removed when the run ends.
	DataRoot string
	// SimDelay is the stub simulation's duration. Default 5ms.
	SimDelay time.Duration
	// Soak switches from the fixed-length chaos schedule to the
	// duration-bounded soak: every node sits behind a fault-injecting
	// TCP proxy, a rolling weather schedule partitions and slows links,
	// and goroutine hygiene (zero growth, no partial deadlock) is
	// asserted at interval and at exit.
	Soak bool
	// Duration bounds a soak run. Default 2m.
	Duration time.Duration
	// BlockedAfter is how long a module goroutine may sit parked on one
	// synchronization site before the soak calls it partially
	// deadlocked. Default 15s.
	BlockedAfter time.Duration
	// MemWeather arms the soak's memory-weather mode: every node gets a
	// small-budget memory governor, the stub runner allocates (and holds
	// for the simulated duration) each request's estimated trace
	// footprint, and the first ~60% of the soak storms the cluster with
	// oversized full-scale requests. Exit assertions require the ladder
	// to have engaged at least the sampled rung, bounded heap growth,
	// recovery of every node to the healthy rung, and an SLO burn rate
	// under budget. Implies Soak.
	MemWeather bool
	// MemLimitMB is each node's governor byte budget under MemWeather.
	// Default 64.
	MemLimitMB int
	// HeapSlackMB is the allowed live-heap growth over the post-boot
	// baseline at soak exit (any soak, not just memory weather).
	// Default 64.
	HeapSlackMB int
	// Logger sinks coordinator/engine logs. Default: discard.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MemWeather {
		c.Soak = true
	}
	if c.MemLimitMB <= 0 {
		c.MemLimitMB = 64
	}
	if c.HeapSlackMB <= 0 {
		c.HeapSlackMB = 64
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ops <= 0 {
		c.Ops = 200
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.SimDelay <= 0 {
		c.SimDelay = 5 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Minute
	}
	if c.BlockedAfter <= 0 {
		c.BlockedAfter = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Report is the outcome of a swarm run. Violations empty means every
// asserted property held for the whole schedule.
type Report struct {
	Seed        int64 `json:"seed"`
	Nodes       int   `json:"nodes"`
	Ops         int   `json:"ops"`
	Submits     int   `json:"submits"`
	Acked       int   `json:"acked"`
	SyncSubmits int   `json:"sync_submits"`
	StatusReads int   `json:"status_reads"`
	Kills       int   `json:"kills"`
	Restarts    int   `json:"restarts"`
	Drains      int   `json:"drains"`
	Undrains    int   `json:"undrains"`
	Proofs      int   `json:"coalescing_proofs"`
	Simulations int   `json:"simulations"`
	// Observability-plane completeness: TraceChecks counts acked runs
	// that reached done and had their stitched trace validated at exit;
	// TracesStitched those that came back stitched and well-formed;
	// TracesMissing the member-side 404s (tolerated only under kills).
	TraceChecks    int `json:"trace_checks,omitempty"`
	TracesStitched int `json:"traces_stitched,omitempty"`
	TracesMissing  int `json:"traces_missing,omitempty"`
	// Soak-only fields.
	SoakSeconds       float64 `json:"soak_seconds,omitempty"`
	WeatherShifts     int     `json:"weather_shifts,omitempty"`
	Partitions        int     `json:"partitions,omitempty"`
	BlockedChecks     int     `json:"blocked_checks,omitempty"`
	GoroutineBaseline int     `json:"goroutine_baseline,omitempty"`
	GoroutinePeak     int     `json:"goroutine_peak,omitempty"`
	// Heap accounting (any soak) and memory-weather ladder/SLO summary.
	HeapBaselineBytes  int64                 `json:"heap_baseline_bytes,omitempty"`
	HeapHighWaterBytes int64                 `json:"heap_high_water_bytes,omitempty"`
	OversizedSubmits   int                   `json:"oversized_submits,omitempty"`
	MemLimitBytes      int64                 `json:"mem_limit_bytes,omitempty"`
	MemMaxRung         string                `json:"mem_max_rung,omitempty"`
	MemRungEntries     map[string]int64      `json:"mem_rung_entries,omitempty"`
	MemRungSeconds     map[string]float64    `json:"mem_rung_seconds,omitempty"`
	SLO                []telemetry.SLOReport `json:"slo,omitempty"`
	SLOWorstBurn       float64               `json:"slo_worst_burn,omitempty"`
	Violations         []string              `json:"violations,omitempty"`
}

// simCounter counts stub simulations per cache key, cluster-wide.
type simCounter struct {
	mu   sync.Mutex
	byKy map[string]int
}

func (s *simCounter) bump(key string) {
	s.mu.Lock()
	s.byKy[key]++
	s.mu.Unlock()
}

func (s *simCounter) count(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKy[key]
}

func (s *simCounter) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, v := range s.byKy {
		n += v
	}
	return n
}

// node is one in-process gspcd: engine + HTTP server on a TCP address
// that stays stable across kill/restart, and a WAL directory that makes
// acknowledged runs survive the kill.
type node struct {
	name    string
	dataDir string
	addr    string // fixed after first boot; restarts rebind it

	engine  *service.Engine
	hs      *http.Server
	gov     *membudget.Governor // memory weather only; survives kill/restart
	alive   bool
	drained bool
	stopped chan struct{} // closed once the killed engine released its WAL
}

// ackedRun tracks one acknowledged (202) submission and the terminal
// state the cluster committed to, once observed.
type ackedRun struct {
	id       string
	terminal service.Status
	result   []byte
}

type swarm struct {
	cfg    Config
	rng    *rand.Rand
	sims   *simCounter
	nodes  []*node
	co     *cluster.Coordinator
	coSrv  *http.Server
	coURL  string
	client *http.Client

	// Soak mode: one fault-injecting proxy per node (the coordinator
	// dials the proxy, the proxy dials the node) and the current weather
	// name per node, for logs and the partition budget.
	proxies []*faultinject.Proxy
	weather []string

	// Soak mode: one latency recorder with an SLO target shared by every
	// node, so the exit summary's burn rate covers the whole cluster.
	slo *telemetry.Latency
	// Memory weather: monotonically increasing oversized-request nonce.
	oversized int

	acked []*ackedRun
	rep   *Report
}

// Run executes one seeded swarm schedule and reports.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	root := cfg.DataRoot
	if root == "" {
		tmp, err := os.MkdirTemp("", "gspc-swarm-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	s := &swarm{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		sims:   &simCounter{byKy: map[string]int{}},
		client: &http.Client{Timeout: 30 * time.Second},
		rep:    &Report{Seed: cfg.Seed, Nodes: cfg.Nodes, Ops: cfg.Ops},
	}
	if cfg.Soak {
		// Generous relative to the stub SimDelay: a breach means queueing
		// or degradation pathology, not normal service.
		s.slo = telemetry.NewLatency(telemetry.SLOTarget{
			P50: 250 * time.Millisecond, P99: time.Second,
		}, 0.99)
	}
	if err := s.boot(root); err != nil {
		return nil, err
	}
	defer s.teardown()

	if cfg.Soak {
		s.soak()
	} else {
		s.schedule()
		s.quiesce()
	}
	s.rep.Simulations = s.sims.total()
	return s.rep, nil
}

func (s *swarm) violate(format string, args ...any) {
	s.rep.Violations = append(s.rep.Violations, fmt.Sprintf(format, args...))
}

// maxStubAllocBytes caps the memory-weather stub allocation per run so
// a pathological estimate cannot OOM the harness process itself; the
// governor still reserves the full estimate at admission.
const maxStubAllocBytes = 16 << 20

// runner is the stub simulation: deterministic result per key, with a
// real (cancellable) delay so kills land on in-flight work. Under
// memory weather it also allocates (and holds for the delay) the
// request's estimated trace footprint, so heap pressure is real, not
// just accounted.
func (s *swarm) runner(ctx context.Context, r service.Request) (*harness.Result, error) {
	key := r.Key()
	s.sims.bump(key)
	var ballast []byte
	if s.cfg.MemWeather {
		est := service.EstimateRequestBytes(r)
		if est > maxStubAllocBytes {
			est = maxStubAllocBytes
		}
		if est > 0 {
			ballast = make([]byte, est)
			for i := 0; i < len(ballast); i += 4096 {
				ballast[i] = 1
			}
		}
	}
	select {
	case <-time.After(s.cfg.SimDelay):
	case <-ctx.Done():
		runtime.KeepAlive(ballast)
		return nil, ctx.Err()
	}
	runtime.KeepAlive(ballast)
	return &harness.Result{
		SchemaVersion: harness.ResultSchemaVersion,
		Experiment:    r.Experiment,
		Title:         "swarm stub",
		Scale:         r.Scale,
		Rendered:      "key " + key,
	}, nil
}

// startNode boots (or reboots) a node's engine and HTTP server. On
// reboot the WAL under dataDir replays, so pre-kill runs stay queryable.
func (s *swarm) startNode(n *node) error {
	if s.cfg.MemWeather && n.gov == nil {
		// One governor per node for its whole life: kills and restarts
		// replace the engine, and RegisterSource re-points the gauges at
		// the fresh one. SetRuntimeLimit stays off — all nodes share this
		// process, so no single node's budget may bind the collector.
		g, err := membudget.New(membudget.Config{
			Limit:        int64(s.cfg.MemLimitMB) << 20,
			HeapBaseline: liveHeapBytes(),
			HoldDown:     time.Second,
			Poll:         100 * time.Millisecond,
			Logger:       s.cfg.Logger,
		})
		if err != nil {
			return fmt.Errorf("node %s: governor: %w", n.name, err)
		}
		g.Start()
		n.gov = g
	}
	e, err := service.NewEngine(service.Config{
		Workers: 2, QueueDepth: 64, CacheEntries: 64, KeepFinished: 2048,
		Run: s.runner, DataDir: n.dataDir, Logger: s.cfg.Logger, TraceEvery: 1,
		Governor: n.gov, Latency: s.slo,
	})
	if err != nil {
		return fmt.Errorf("node %s: %w", n.name, err)
	}
	srv := service.NewServer(e)
	srv.NodeName = n.name

	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 100 {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			e.Shutdown(ctx)
			cancel()
			return fmt.Errorf("node %s: rebind %s: %w", n.name, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	n.addr = ln.Addr().String()
	n.engine = e
	n.hs = &http.Server{Handler: srv}
	n.alive = true
	n.stopped = nil
	go n.hs.Serve(ln)
	return nil
}

// kill closes the node's listener and connections immediately — clients
// see a refused/reset connection, like a crashed process — and releases
// the WAL in the background so a later restart can reopen it.
func (s *swarm) kill(n *node) {
	n.hs.Close()
	n.alive = false
	stopped := make(chan struct{})
	n.stopped = stopped
	engine := n.engine
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		engine.Shutdown(ctx)
		close(stopped)
	}()
}

// restart waits for the killed engine to release its WAL (single
// writer), then boots a fresh engine on the same data dir and address.
func (s *swarm) restart(n *node) error {
	if n.stopped != nil {
		<-n.stopped
	}
	return s.startNode(n)
}

func (s *swarm) boot(root string) error {
	s.nodes = make([]*node, s.cfg.Nodes)
	for i := range s.nodes {
		n := &node{
			name:    fmt.Sprintf("swarm-%d", i+1),
			dataDir: filepath.Join(root, fmt.Sprintf("node-%d", i+1)),
		}
		if err := s.startNode(n); err != nil {
			return err
		}
		s.nodes[i] = n
	}

	ccfg := cluster.Config{
		Name: "gspc-swarm", Replication: s.cfg.Replication,
		HealthInterval: 250 * time.Millisecond, HealthTimeout: 2 * time.Second,
		DeadAfter: 1, Logger: s.cfg.Logger,
	}
	specs := make([]cluster.MemberSpec, len(s.nodes))
	if s.cfg.Soak {
		// Every link crosses a seeded fault-injecting proxy; the node's
		// real address stays the proxy's fixed target across restarts.
		s.proxies = make([]*faultinject.Proxy, len(s.nodes))
		s.weather = make([]string, len(s.nodes))
		for i, n := range s.nodes {
			p, err := faultinject.NewProxy(n.addr, s.cfg.Seed+int64(i)*7919, faultinject.NetSpec{})
			if err != nil {
				return err
			}
			s.proxies[i] = p
			s.weather[i] = "clear"
			specs[i] = cluster.MemberSpec{Name: n.name, URL: "http://" + p.Addr()}
		}
		// Soak-specific coordinator posture: production-like strike
		// budgets (a blip must not eject), tight per-forward timeouts so
		// black-holed links fail over in seconds, eager hedging, and no
		// keep-alives — a healed partition must not leave the coordinator
		// holding connections that pre-date the weather.
		ccfg.DeadAfter = 2
		ccfg.ForwardTimeout = 2 * time.Second
		ccfg.HedgeDelay = 250 * time.Millisecond
		ccfg.ReplicateBackoff = 100 * time.Millisecond
		ccfg.Client = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	} else {
		for i, n := range s.nodes {
			specs[i] = cluster.MemberSpec{Name: n.name, URL: "http://" + n.addr}
		}
	}
	ccfg.Members = specs
	co, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	s.co = co
	co.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.coSrv = &http.Server{Handler: cluster.NewServer(co)}
	s.coURL = "http://" + ln.Addr().String()
	go s.coSrv.Serve(ln)
	return nil
}

func (s *swarm) teardown() {
	if s.coSrv != nil {
		s.coSrv.Close()
	}
	if s.co != nil {
		s.co.Close()
	}
	for _, p := range s.proxies {
		p.Close()
	}
	for _, n := range s.nodes {
		if n.alive {
			s.kill(n)
		}
	}
	for _, n := range s.nodes {
		if n.stopped != nil {
			<-n.stopped
		}
		if n.gov != nil {
			n.gov.Close()
		}
	}
}

// liveHeapBytes is the per-node governor's heap baseline: the process
// heap at node boot, so only growth past boot charges the budget.
func liveHeapBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// routableCount is the harness's own view of placeable nodes; the
// schedule uses it to never kill or drain the last one.
func (s *swarm) routableCount() int {
	c := 0
	for _, n := range s.nodes {
		if n.alive && !n.drained {
			c++
		}
	}
	return c
}

func (s *swarm) pick(want func(*node) bool) *node {
	var cands []*node
	for _, n := range s.nodes {
		if want(n) {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[s.rng.Intn(len(cands))]
}

// requestPool is the steady-state key population: small enough that
// cache hits and coalescing actually occur, varied enough to spread
// across the ring.
var poolApps = [][]string{
	{"Dirt"}, {"HAWX"}, {"Heaven"}, {"BioShock"},
	{"Dirt", "HAWX"}, {"LostPlanet"},
}

func (s *swarm) poolRequest() string {
	req := service.Request{
		Experiment: [...]string{"fig12", "fig15"}[s.rng.Intn(2)],
		Frames:     1 + s.rng.Intn(3),
		Apps:       poolApps[s.rng.Intn(len(poolApps))],
	}
	b, _ := json.Marshal(req)
	return string(b)
}

type statusBody struct {
	ID     string          `json:"id"`
	Status service.Status  `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
}

// allowedTransient reports HTTP statuses that chaos legitimately
// produces: backpressure and down/unreachable members.
func allowedTransient(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

func (s *swarm) post(path, body string) (*http.Response, []byte, error) {
	resp, err := s.client.Post(s.coURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

func (s *swarm) opSubmitAsync() {
	s.rep.Submits++
	resp, b, err := s.post("/v1/runs?wait=0", s.poolRequest())
	if err != nil {
		s.violate("async submit transport error: %v", err)
		return
	}
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var ack map[string]string
		if json.Unmarshal(b, &ack) != nil || ack["id"] == "" {
			s.violate("202 ack without id: %s", b)
			return
		}
		if !strings.Contains(ack["id"], "@") {
			s.violate("ack id %q not node-qualified", ack["id"])
			return
		}
		s.acked = append(s.acked, &ackedRun{id: ack["id"]})
		s.rep.Acked++
	case resp.StatusCode == http.StatusOK:
		// A wait=0 submit whose answer is already cached is served
		// immediately — the result body, not an ack.
	case allowedTransient(resp.StatusCode):
	default:
		s.violate("async submit: unexpected status %d: %s", resp.StatusCode, b)
	}
}

// opSubmitOversized storms one full-scale request at the cluster. The
// key population (experiment × frames × apps × scale) is large enough
// that owner caches cannot absorb the storm, so most submissions
// reserve their full multi-megabyte estimate at admission and the stub
// runner allocates it for real — exactly the load the degradation
// ladder exists to survive. The 429/503 the shed and stale-only rungs
// produce are allowedTransient, so the consistency contract still holds
// over whatever the cluster does accept.
func (s *swarm) opSubmitOversized() {
	s.rep.OversizedSubmits++
	s.oversized++
	req := service.Request{
		Experiment: [...]string{"fig12", "fig15"}[s.rng.Intn(2)],
		Frames:     1 + s.rng.Intn(4),
		Apps:       poolApps[s.rng.Intn(len(poolApps))],
		Scale:      1.0 + 0.25*float64(s.rng.Intn(3)),
	}
	body, _ := json.Marshal(req)
	resp, b, err := s.post("/v1/runs?wait=0", string(body))
	if err != nil {
		s.violate("oversized submit transport error: %v", err)
		return
	}
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var ack map[string]string
		if json.Unmarshal(b, &ack) != nil || ack["id"] == "" {
			s.violate("oversized 202 ack without id: %s", b)
			return
		}
		s.acked = append(s.acked, &ackedRun{id: ack["id"]})
		s.rep.Acked++
	case resp.StatusCode == http.StatusOK:
	case allowedTransient(resp.StatusCode):
	default:
		s.violate("oversized submit: unexpected status %d: %s", resp.StatusCode, b)
	}
}

func (s *swarm) opSubmitSync() {
	s.rep.SyncSubmits++
	resp, b, err := s.post("/v1/runs", s.poolRequest())
	if err != nil {
		s.violate("sync submit transport error: %v", err)
		return
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if len(b) == 0 {
			s.violate("sync 200 with empty body")
		}
	case allowedTransient(resp.StatusCode):
	default:
		s.violate("sync submit: unexpected status %d: %s", resp.StatusCode, b)
	}
}

// opStatusPoll re-reads a random acknowledged run and checks the
// consistency contract.
func (s *swarm) opStatusPoll() {
	if len(s.acked) == 0 {
		return
	}
	run := s.acked[s.rng.Intn(len(s.acked))]
	s.rep.StatusReads++
	s.checkStatus(run, false)
}

// checkStatus performs one status read for run and folds the outcome
// into the consistency state. strict rejects transient failures (used
// during the final quiesce, when every member is up). It reports
// whether the run has reached a terminal status.
func (s *swarm) checkStatus(run *ackedRun, strict bool) bool {
	resp, err := s.client.Get(s.coURL + "/v1/runs/" + run.id)
	if err != nil {
		s.violate("status %s: transport error: %v", run.id, err)
		return false
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		var st statusBody
		if err := json.Unmarshal(b, &st); err != nil {
			s.violate("status %s: bad body: %v", run.id, err)
			return false
		}
		terminal := st.Status == service.StatusDone ||
			st.Status == service.StatusFailed || st.Status == service.StatusCancelled
		if run.terminal != "" {
			if st.Status != run.terminal {
				s.violate("run %s: terminal status changed %s → %s",
					run.id, run.terminal, st.Status)
			} else if run.terminal == service.StatusDone && !bytes.Equal(run.result, st.Result) {
				s.violate("run %s: done result bytes changed across reads", run.id)
			}
			return true
		}
		if terminal {
			run.terminal = st.Status
			run.result = st.Result
		}
		return terminal
	case resp.StatusCode == http.StatusNotFound:
		s.violate("run %s: acknowledged but not found (status 404)", run.id)
		return false
	case allowedTransient(resp.StatusCode):
		if strict {
			s.violate("run %s: still unreachable after quiesce: %d", run.id, resp.StatusCode)
		}
		return false
	default:
		s.violate("status %s: unexpected status %d: %s", run.id, resp.StatusCode, b)
		return false
	}
}

func (s *swarm) opKill() {
	n := s.pick(func(n *node) bool {
		if !n.alive {
			return false
		}
		// Killing a drained node never affects routability; killing a
		// routable one needs another routable survivor.
		return n.drained || s.routableCount() >= 2
	})
	if n == nil {
		return
	}
	s.kill(n)
	s.rep.Kills++
	s.co.CheckNow()
}

func (s *swarm) opRestart() {
	n := s.pick(func(n *node) bool { return !n.alive })
	if n == nil {
		return
	}
	if err := s.restart(n); err != nil {
		s.violate("restart %s: %v", n.name, err)
		return
	}
	s.rep.Restarts++
	s.co.CheckNow()
}

func (s *swarm) opDrain() {
	n := s.pick(func(n *node) bool { return n.alive && !n.drained })
	if n == nil || s.routableCount() < 2 {
		return
	}
	n.drained = true
	s.co.Drain(n.name)
	s.rep.Drains++
}

func (s *swarm) opUndrain() {
	n := s.pick(func(n *node) bool { return n.drained })
	if n == nil {
		return
	}
	n.drained = false
	s.co.Undrain(n.name)
	s.rep.Undrains++
}

// proveCoalescing submits a never-before-seen key concurrently through
// the coordinator and asserts exactly one simulation ran. The schedule
// is single-threaded, so membership cannot change mid-proof; if any
// submission failed transiently the proof degrades to "at most the
// failover bound" (a leader whose forward dies mid-flight legitimately
// recomputes once on the successor).
func (s *swarm) proveCoalescing(nonce int) {
	s.rep.Proofs++
	body := fmt.Sprintf(`{"experiment":"fig12","frames":%d,"apps":["Civilization"]}`, 100+nonce)
	var req service.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		s.violate("proof body: %v", err)
		return
	}
	nreq, err := req.Normalize()
	if err != nil {
		s.violate("proof normalize: %v", err)
		return
	}
	key := nreq.Key()

	const fan = 3
	type outcome struct {
		code int
		body []byte
		err  error
	}
	results := make(chan outcome, fan)
	var wg sync.WaitGroup
	for i := 0; i < fan; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, b, err := s.post("/v1/runs", body)
			if err != nil {
				results <- outcome{err: err}
				return
			}
			results <- outcome{code: resp.StatusCode, body: b}
		}()
	}
	wg.Wait()
	close(results)

	allOK := true
	var first []byte
	for r := range results {
		if r.err != nil || r.code != http.StatusOK {
			allOK = false
			continue
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			s.violate("proof %d: concurrent same-key responses differ", nonce)
		}
	}
	n := s.sims.count(key)
	if allOK && n != 1 {
		s.violate("proof %d: %d simulations for one key under stable membership, want 1", nonce, n)
	}
	if n > 2 {
		s.violate("proof %d: coalescing blown open, %d simulations", nonce, n)
	}
}

// schedule runs the seeded op mix.
func (s *swarm) schedule() {
	proofs := 0
	for op := 0; op < s.cfg.Ops; op++ {
		if op > 0 && op%25 == 0 {
			proofs++
			s.proveCoalescing(proofs)
			continue
		}
		switch roll := s.rng.Float64(); {
		case roll < 0.40:
			s.opSubmitAsync()
		case roll < 0.55:
			s.opSubmitSync()
		case roll < 0.80:
			s.opStatusPoll()
		case roll < 0.86:
			s.opKill()
		case roll < 0.92:
			s.opRestart()
		case roll < 0.96:
			s.opDrain()
		default:
			s.opUndrain()
		}
	}
}

// heal restores full cluster health: every node running, nothing
// drained, every proxy link clear, membership converged.
func (s *swarm) heal() {
	for _, n := range s.nodes {
		if !n.alive {
			if err := s.restart(n); err != nil {
				s.violate("heal restart %s: %v", n.name, err)
			}
		}
		if n.drained {
			n.drained = false
			s.co.Undrain(n.name)
		}
	}
	for i, p := range s.proxies {
		p.SetSpec(faultinject.NetSpec{})
		s.weather[i] = "clear"
	}
	s.co.CheckNow()
}

// quiesce heals the cluster — every node up, nothing drained — and then
// requires every acknowledged run to reach a stable terminal status.
func (s *swarm) quiesce() {
	s.heal()

	deadline := time.Now().Add(30 * time.Second)
	for _, run := range s.acked {
		for {
			if s.checkStatus(run, false) {
				break
			}
			if time.Now().After(deadline) {
				s.violate("run %s: no terminal status after quiesce (deadline)", run.id)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// One more read per run: every member is up now, so the read must
	// succeed and the terminal status must hold.
	for _, run := range s.acked {
		if run.terminal != "" {
			s.checkStatus(run, true)
		}
	}

	s.checkTraces()
}

// checkTraces asserts observability-plane completeness over the quiesced
// cluster: every acked run that reached done must serve a stitched
// coordinator+member trace through the coordinator, with both lanes
// present, clock-corrected non-negative timestamps, and zero orphan
// spans when the member adopted the propagated trace id. A member-side
// 404 is tolerated only when the schedule killed nodes — a job that was
// queued in the WAL at kill time is resubmitted without its run handle
// and completes untraced.
func (s *swarm) checkTraces() {
	for _, run := range s.acked {
		if run.terminal != service.StatusDone {
			continue
		}
		s.rep.TraceChecks++
		resp, err := s.client.Get(s.coURL + "/v1/runs/" + run.id + "/trace")
		if err != nil {
			s.violate("trace %s: transport error: %v", run.id, err)
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotFound:
			s.rep.TracesMissing++
			if s.rep.Kills == 0 {
				s.violate("run %s: done but trace missing with no kills in schedule", run.id)
			}
			continue
		case resp.StatusCode != http.StatusOK:
			s.violate("trace %s: unexpected status %d: %s", run.id, resp.StatusCode, b)
			continue
		}
		if resp.Header.Get("X-Gspc-Trace-Stitched") != "1" {
			// The coordinator never restarts in a swarm schedule and its
			// registry outlives the op budget, so an unstitched relay
			// means the plane lost a submit it acknowledged.
			s.violate("run %s: trace served unstitched", run.id)
			continue
		}
		var doc telemetry.TraceDoc
		if err := json.Unmarshal(b, &doc); err != nil {
			s.violate("trace %s: stitched body unparseable: %v", run.id, err)
			continue
		}
		s.rep.TracesStitched++
		if doc.OtherData["stitched"] != "true" {
			s.violate("run %s: stitched trace lacks stitched marker", run.id)
		}
		lanes := map[int]bool{}
		badTS := false
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			lanes[ev.PID] = true
			if ev.TS < 0 && !badTS {
				badTS = true
				s.violate("run %s: span %q at negative timestamp after clock correction", run.id, ev.Name)
			}
		}
		if !lanes[1] || !lanes[2] {
			s.violate("run %s: stitched trace missing a lane (coordinator=%v member=%v)",
				run.id, lanes[1], lanes[2])
		}
		if doc.OtherData["adopted"] == "true" && doc.OtherData["orphan_spans"] != "0" {
			s.violate("run %s: %s orphan member spans in adopted trace",
				run.id, doc.OtherData["orphan_spans"])
		}
	}
}
