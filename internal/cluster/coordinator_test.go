package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gspc/internal/harness"
	"gspc/internal/service"
	"gspc/internal/telemetry"
)

// simCounter counts actual simulations per cache key, cluster-wide: the
// counter assertions behind the coalescing and replication guarantees.
type simCounter struct {
	mu   sync.Mutex
	byKy map[string]int
}

func newSimCounter() *simCounter { return &simCounter{byKy: map[string]int{}} }

func (s *simCounter) runner(delay time.Duration) func(context.Context, service.Request) (*harness.Result, error) {
	return func(ctx context.Context, r service.Request) (*harness.Result, error) {
		key := r.Key()
		s.mu.Lock()
		s.byKy[key]++
		s.mu.Unlock()
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &harness.Result{
			SchemaVersion: harness.ResultSchemaVersion,
			Experiment:    r.Experiment,
			Title:         "cluster stub",
			Scale:         r.Scale,
			Rendered:      "key " + key,
		}, nil
	}
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

type testNode struct {
	name   string
	engine *service.Engine
	ts     *httptest.Server
}

func discard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// newTestNodes boots n in-process gspcd engines behind real HTTP
// listeners, all sharing one simulation counter.
func newTestNodes(t *testing.T, n int, sims *simCounter, delay time.Duration) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	for i := range nodes {
		name := fmt.Sprintf("gspc-%d", i+1)
		e, err := service.NewEngine(service.Config{
			Workers: 2, CacheEntries: 32, Run: sims.runner(delay),
			Logger: discard(), TraceEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.NewServer(e)
		srv.NodeName = name
		ts := httptest.NewServer(srv)
		nodes[i] = &testNode{name: name, engine: e, ts: ts}
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			e.Shutdown(ctx)
		})
	}
	return nodes
}

func specs(nodes []*testNode) []MemberSpec {
	out := make([]MemberSpec, len(nodes))
	for i, n := range nodes {
		out[i] = MemberSpec{Name: n.name, URL: n.ts.URL}
	}
	return out
}

func nodeByName(nodes []*testNode, name string) *testNode {
	for _, n := range nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// newTestCoordinator builds (without starting the health loop — tests
// drive CheckNow explicitly for determinism) a coordinator plus its
// HTTP server.
func newTestCoordinator(t *testing.T, nodes []*testNode, mutate func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Members: specs(nodes), Replication: 1,
		HealthTimeout: 2 * time.Second, DeadAfter: 1, Logger: discard(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(co))
	t.Cleanup(func() {
		ts.Close()
		co.Close()
	})
	return co, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func keyOf(t *testing.T, body string) string {
	t.Helper()
	var req service.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	nreq, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return nreq.Key()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterCoalescingAcrossConnections is the acceptance property:
// the same key submitted concurrently through two different coordinator
// entry points performs exactly one simulation cluster-wide.
func TestClusterCoalescingAcrossConnections(t *testing.T) {
	sims := newSimCounter()
	nodes := newTestNodes(t, 3, sims, 100*time.Millisecond)
	_, ts1 := newTestCoordinator(t, nodes, nil)
	_, ts2 := newTestCoordinator(t, nodes, func(c *Config) { c.Name = "gspc-cluster-2" })

	body := `{"experiment":"fig12","apps":["Dirt"]}`
	key := keyOf(t, body)

	type out struct {
		status int
		body   []byte
		err    error
	}
	results := make(chan out, 4)
	var wg sync.WaitGroup
	for _, base := range []string{ts1.URL, ts2.URL, ts1.URL, ts2.URL} {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				results <- out{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			results <- out{resp.StatusCode, b, err}
		}(base)
	}
	wg.Wait()
	close(results)

	var first []byte
	for r := range results {
		if r.err != nil {
			t.Fatalf("submit failed: %v", r.err)
		}
		if r.status != 200 {
			t.Fatalf("submit status %d: %s", r.status, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Errorf("bodies differ across connections:\n%s\n%s", first, r.body)
		}
	}
	if n := sims.count(key); n != 1 {
		t.Fatalf("cluster ran %d simulations for one key, want exactly 1", n)
	}
}

// gatedMember is a fake gspcd that counts run submissions. The first
// submission parks until release is closed and then fails outright: the
// connection is dropped without a response. Every later submission
// answers 200 at once.
type gatedMember struct {
	ts       *httptest.Server
	release  chan struct{}
	arrived  chan struct{} // closed when the first submission is parked
	mu       sync.Mutex
	requests int
}

func newGatedMember(t *testing.T) *gatedMember {
	t.Helper()
	g := &gatedMember{release: make(chan struct{}), arrived: make(chan struct{})}
	g.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			http.NotFound(w, r)
			return
		}
		g.mu.Lock()
		g.requests++
		first := g.requests == 1
		g.mu.Unlock()
		if first {
			close(g.arrived)
			<-g.release
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.Header().Set("X-Gspc-Run", "run-000002")
		w.Header().Set("X-Gspc-Cache", "miss")
		w.Header().Set("X-Gspc-Node", "gated")
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"experiment":"fig12"}`)
	}))
	t.Cleanup(g.ts.Close)
	return g
}

func (g *gatedMember) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.requests
}

func gatedCoordinator(t *testing.T, g *gatedMember) (*Coordinator, *httptest.Server) {
	t.Helper()
	co, err := New(Config{
		Members:   []MemberSpec{{Name: "gated", URL: g.ts.URL}},
		DeadAfter: 3, HedgeDelay: -1, Logger: discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(co))
	t.Cleanup(func() {
		ts.Close()
		co.Close()
	})
	return co, ts
}

// TestCoalescedWaitersReelectAfterLeaderFails: when the leader's forward
// fails outright (the member drops the connection), the synchronous
// submitters still waiting on it elect one new leader among themselves,
// so the member sees exactly one more forward, not one per waiter, and
// every waiter gets that forward's answer.
func TestCoalescedWaitersReelectAfterLeaderFails(t *testing.T) {
	g := newGatedMember(t)
	co, ts := gatedCoordinator(t, g)
	body := `{"experiment":"fig12","apps":["Dirt"]}`

	leader := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			leader <- 0
			return
		}
		resp.Body.Close()
		leader <- resp.StatusCode
	}()
	<-g.arrived

	const waiters = 4
	statuses := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("waiter submit: %v", err)
				statuses <- 0
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	waitUntil(t, "waiters parked", func() bool { return co.flights.Stats().Coalesced == waiters })
	close(g.release)

	if st := <-leader; st == http.StatusOK {
		t.Errorf("leader got 200 from a dropped forward")
	}
	for i := 0; i < waiters; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Errorf("waiter %d status %d, want 200 from the new leader", i, st)
		}
	}
	if n := g.count(); n != 2 {
		t.Errorf("member saw %d forwards, want 2 (the failed leader and one new leader)", n)
	}
	if m := co.Metrics(); m.Coalesced != waiters-1 {
		t.Errorf("coalesced = %d, want %d replays of the new leader", m.Coalesced, waiters-1)
	}
}

// TestCoalescedWaiterLeavesOnCancel: a waiter whose context dies returns
// at once with its context error, without waiting out the leader, and
// the leader's forward is undisturbed.
func TestCoalescedWaiterLeavesOnCancel(t *testing.T) {
	g := newGatedMember(t)
	co, _ := gatedCoordinator(t, g)
	body := []byte(`{"experiment":"fig12","apps":["Dirt"]}`)
	key := keyOf(t, string(body))

	leaderDone := make(chan error, 1)
	go func() {
		_, err := co.submitSync(context.Background(), key, "", body)
		leaderDone <- err
	}()
	<-g.arrived

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := co.submitSync(ctx, key, "", body)
		waiterDone <- err
	}()
	waitUntil(t, "waiter parked", func() bool { return co.flights.Stats().Coalesced == 1 })
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not leave while the leader was still forwarding")
	}
	select {
	case err := <-leaderDone:
		t.Fatalf("leader finished before its member answered: %v", err)
	default:
	}
	close(g.release)
	if err := <-leaderDone; err == nil {
		t.Error("leader's dropped forward reported success")
	}
	if n := g.count(); n != 1 {
		t.Errorf("member saw %d forwards, want 1 (the waiter never forwarded)", n)
	}
}

// TestTraceRegistryFirstWinsAndBounded: the registry keeps the first
// run registered under an id, and never holds more than
// traceRegistryCap runs.
func TestTraceRegistryFirstWinsAndBounded(t *testing.T) {
	g := newGatedMember(t)
	co, _ := gatedCoordinator(t, g)
	first := telemetry.NewRun("first", 1)
	co.traces.Put("run-000001@gated", traceEntry{run: first, node: "gated"})
	co.traces.Put("run-000001@gated", traceEntry{run: telemetry.NewRun("second", 1), node: "other"})
	if e, ok := co.traces.Peek("run-000001@gated"); !ok || e.run != first || e.node != "gated" {
		t.Errorf("registry entry = %+v %v, want the first registration", e, ok)
	}
	for i := 0; i < traceRegistryCap+10; i++ {
		co.traces.Put(fmt.Sprintf("run-%06d@n", i), traceEntry{run: first, node: "n"})
	}
	if n := co.traces.Len(); n != traceRegistryCap {
		t.Errorf("registry holds %d runs, want its capacity %d", n, traceRegistryCap)
	}
}

// TestClusterRerouteAndReplicaServing: killing a key's owner must not
// lose the result — the coordinator fails over to the ring successor,
// which already holds the replica, so the answer is served without
// recomputation.
func TestClusterRerouteAndReplicaServing(t *testing.T) {
	sims := newSimCounter()
	nodes := newTestNodes(t, 3, sims, 10*time.Millisecond)
	co, ts := newTestCoordinator(t, nodes, nil)

	body := `{"experiment":"fig15","apps":["HAWX"]}`
	key := keyOf(t, body)
	owners := co.currentRing().Owners(key, 2)
	owner, successor := owners[0], owners[1]

	resp, _ := postJSON(t, ts.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("initial submit = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gspc-Node"); got != owner {
		t.Fatalf("served by %s, ring owner is %s", got, owner)
	}
	if run := resp.Header.Get("X-Gspc-Run"); !strings.HasSuffix(run, "@"+owner) {
		t.Errorf("X-Gspc-Run %q not qualified with owner", run)
	}

	// Replication onto the successor is asynchronous; wait for it.
	waitUntil(t, "replication", func() bool {
		return nodeByName(nodes, successor).engine.Metrics().ReplicasInstalled == 1
	})

	// Kill the owner cold — no health sweep yet, so the coordinator
	// discovers the death from the failed forward itself.
	nodeByName(nodes, owner).ts.CloseClientConnections()
	nodeByName(nodes, owner).ts.Close()

	resp, b := postJSON(t, ts.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("post-kill submit = %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Gspc-Node"); got != successor {
		t.Errorf("post-kill served by %s, want successor %s", got, successor)
	}
	if got := resp.Header.Get("X-Gspc-Cache"); got != "hit" {
		t.Errorf("post-kill disposition = %q, want hit (replica-served)", got)
	}
	if n := sims.count(key); n != 1 {
		t.Errorf("owner death caused recomputation: %d simulations for key", n)
	}
	m := co.Metrics()
	if m.Reroutes == 0 {
		t.Errorf("reroutes = 0, want > 0 after failover")
	}
	if m.Rebalances == 0 {
		t.Errorf("rebalances = 0, want > 0 after member death")
	}
}

// TestClusterDrainSemantics: a drained member stops receiving new runs
// but keeps answering status queries for the runs it already owns.
func TestClusterDrainSemantics(t *testing.T) {
	sims := newSimCounter()
	nodes := newTestNodes(t, 3, sims, 5*time.Millisecond)
	co, ts := newTestCoordinator(t, nodes, nil)

	body := `{"experiment":"fig12","apps":["BioShock"]}`
	key := keyOf(t, body)
	owner, _ := co.currentRing().Owner(key)

	// Async submit lands on the owner; remember its qualified id.
	resp, err := http.Post(ts.URL+"/v1/runs?wait=0", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 202 {
		t.Fatalf("async submit = %d %v", resp.StatusCode, ack)
	}
	if !strings.HasSuffix(ack["id"], "@"+owner) {
		t.Fatalf("async id %q not on owner %s", ack["id"], owner)
	}

	// Drain the owner; the same key must now route elsewhere.
	dresp, err := http.Post(ts.URL+"/v1/cluster/members/"+owner+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Fatalf("drain = %d", dresp.StatusCode)
	}
	for _, n := range co.currentRing().Nodes() {
		if n == owner {
			t.Fatalf("drained member %s still on ring", owner)
		}
	}
	resp2, _ := postJSON(t, ts.URL, body)
	if resp2.StatusCode != 200 {
		t.Fatalf("post-drain submit = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Gspc-Node"); got == owner {
		t.Errorf("post-drain submit still served by drained %s", owner)
	}

	// The drained member still answers for its acknowledged run.
	waitUntil(t, "drained-node status", func() bool {
		sresp, err := http.Get(ts.URL + "/v1/runs/" + ack["id"])
		if err != nil {
			return false
		}
		defer sresp.Body.Close()
		var st map[string]any
		if sresp.StatusCode != 200 || json.NewDecoder(sresp.Body).Decode(&st) != nil {
			return false
		}
		return st["status"] == "done"
	})

	// Undrain restores placement.
	uresp, err := http.Post(ts.URL+"/v1/cluster/members/"+owner+"/undrain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	found := false
	for _, n := range co.currentRing().Nodes() {
		found = found || n == owner
	}
	if !found {
		t.Errorf("undrained member %s not back on ring", owner)
	}
}

// TestClusterSaturatedOwnerCacheProbe: an alive-but-saturated owner
// keeps its keys, but a request whose answer a follower already holds
// is served from the replica instead of queueing onto the hot node.
func TestClusterSaturatedOwnerCacheProbe(t *testing.T) {
	sims := newSimCounter()
	nodes := newTestNodes(t, 3, sims, 5*time.Millisecond)
	co, ts := newTestCoordinator(t, nodes, nil)

	body := `{"experiment":"fig12","apps":["Heaven"]}`
	key := keyOf(t, body)
	owners := co.currentRing().Owners(key, 2)
	owner, successor := owners[0], owners[1]

	// Compute once and wait for the replica to land on the successor.
	if resp, b := postJSON(t, ts.URL, body); resp.StatusCode != 200 {
		t.Fatalf("initial submit = %d: %s", resp.StatusCode, b)
	}
	waitUntil(t, "replication", func() bool {
		return nodeByName(nodes, successor).engine.Metrics().ReplicasInstalled >= 1
	})

	// Pretend the owner reported a saturated queue on its last health
	// check (white-box: the real path is the /readyz JSON body).
	m, _ := co.Member(owner)
	m.mu.Lock()
	m.ready = false
	m.readyInfo = service.ReadyInfo{Status: "unready", Reason: "queue saturated (64/64)", QueueDepth: 64, QueueCapacity: 64}
	m.mu.Unlock()

	resp, _ := postJSON(t, ts.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("saturated submit = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gspc-Node"); got != successor {
		t.Errorf("saturated submit served by %s, want replica holder %s", got, successor)
	}
	if co.Metrics().CacheProbeHits != 1 {
		t.Errorf("cache_probe_hits = %d, want 1", co.Metrics().CacheProbeHits)
	}
	if n := sims.count(key); n != 1 {
		t.Errorf("saturation probe recomputed: %d simulations", n)
	}
}

// TestClusterMemorySaturatedOwnerReroute: a member whose /readyz went
// unready because its memory ladder reached stale-only is treated like
// any saturated owner — requests whose answers a follower replica holds
// are served there instead of adding load to the pressured node.
func TestClusterMemorySaturatedOwnerReroute(t *testing.T) {
	sims := newSimCounter()
	nodes := newTestNodes(t, 3, sims, 5*time.Millisecond)
	co, ts := newTestCoordinator(t, nodes, nil)

	body := `{"experiment":"fig15","apps":["Dirt"]}`
	key := keyOf(t, body)
	owners := co.currentRing().Owners(key, 2)
	owner, successor := owners[0], owners[1]

	// Compute once and wait for the replica to land on the successor.
	if resp, b := postJSON(t, ts.URL, body); resp.StatusCode != 200 {
		t.Fatalf("initial submit = %d: %s", resp.StatusCode, b)
	}
	waitUntil(t, "replication", func() bool {
		return nodeByName(nodes, successor).engine.Metrics().ReplicasInstalled >= 1
	})

	// Pretend the owner's last health check reported memory saturation
	// (white-box: the real path is the governor driving /readyz unready
	// at RungStaleOnly and checkMember decoding the Mem* fields).
	m, _ := co.Member(owner)
	m.mu.Lock()
	m.ready = false
	m.readyInfo = service.ReadyInfo{
		Status: "unready", Reason: "memory saturated (rung stale-only, pressure 0.91)",
		MemRung: "stale-only", MemRungLevel: 3, MemPressure: 0.91, MemLimitBytes: 64 << 20,
	}
	m.mu.Unlock()

	resp, _ := postJSON(t, ts.URL, body)
	if resp.StatusCode != 200 {
		t.Fatalf("memory-saturated submit = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Gspc-Node"); got != successor {
		t.Errorf("memory-saturated submit served by %s, want replica holder %s", got, successor)
	}
	if co.Metrics().CacheProbeHits != 1 {
		t.Errorf("cache_probe_hits = %d, want 1", co.Metrics().CacheProbeHits)
	}
	if n := sims.count(key); n != 1 {
		t.Errorf("memory saturation probe recomputed: %d simulations", n)
	}
	// The member's rung is visible in the coordinator's Prometheus
	// exposition, so operators can see whom routing is avoiding.
	want := fmt.Sprintf("gspc_cluster_member_mem_rung{member=%q} 3", owner)
	if prom := string(co.PromExposition()); !strings.Contains(prom, want) {
		t.Errorf("prom exposition missing %q", want)
	}
}

// TestClusterHealthLifecycle drives the real /readyz health loop: a
// dead member leaves the ring after DeadAfter failed sweeps and rejoins
// when it answers again.
func TestClusterHealthLifecycle(t *testing.T) {
	sims := newSimCounter()
	nodes := newTestNodes(t, 3, sims, 5*time.Millisecond)
	co, _ := newTestCoordinator(t, nodes, func(c *Config) { c.DeadAfter = 2 })

	co.CheckNow()
	if got := co.currentRing().Len(); got != 3 {
		t.Fatalf("ring after first sweep = %d members", got)
	}

	victim := nodes[1]
	victimURL := victim.ts.Listener.Addr().String()
	victim.ts.Close()
	co.CheckNow() // strike one: still on the ring
	if got := co.currentRing().Len(); got != 3 {
		t.Fatalf("ring lost member after one failed check (DeadAfter=2): %d", got)
	}
	co.CheckNow() // strike two: dead
	if got := co.currentRing().Len(); got != 2 {
		t.Fatalf("ring after death = %d members, want 2", got)
	}
	st, _ := co.Member(victim.name)
	if s := st.snapshot(); s.State != StateDead {
		t.Fatalf("victim state = %s, want dead", s.State)
	}

	// Revive on the same address the coordinator still points at.
	srv := service.NewServer(victim.engine)
	srv.NodeName = victim.name
	revived := httptest.NewUnstartedServer(srv)
	revived.Listener.Close()
	ln, err := reListen(victimURL)
	if err != nil {
		t.Skipf("could not rebind %s: %v", victimURL, err)
	}
	revived.Listener = ln
	revived.Start()
	t.Cleanup(revived.Close)

	co.CheckNow()
	if got := co.currentRing().Len(); got != 3 {
		t.Fatalf("revived member not back on ring: %d", got)
	}
}

// reListen rebinds a just-released TCP address, retrying briefly while
// the kernel finishes tearing the old listener down.
func reListen(addr string) (net.Listener, error) {
	var err error
	for i := 0; i < 100; i++ {
		var ln net.Listener
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, err
}
