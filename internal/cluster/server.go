package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"gspc/internal/service"
	"gspc/internal/telemetry"
)

// maxRequestBytes bounds an inbound run-submission body.
const maxRequestBytes = 1 << 20

// Server is the HTTP face of a Coordinator. It mirrors the gspcd
// surface — the coordinator is a drop-in base URL for any gspcd client —
// plus a /v1/cluster admin section:
//
//	GET  /healthz                           coordinator liveness
//	GET  /readyz                            503 when no member is routable
//	GET  /metricsz                          coordinator metrics (JSON)
//	GET  /metrics                           Prometheus text exposition
//	GET  /versionz                          build identification
//	GET  /v1/experiments                    forwarded to any live member
//	POST /v1/runs                           routed to the key's owner node
//	GET  /v1/runs/{id}                      id is "run-NNNNNN@node"; forwarded to node
//	GET  /v1/runs/{id}/trace                forwarded to node
//	GET  /v1/cluster/members                membership + health snapshot
//	GET  /v1/cluster/events                 typed cluster timeline (NDJSON, ?since=N)
//	POST /v1/cluster/members/{name}/drain   stop placing new runs on name
//	POST /v1/cluster/members/{name}/undrain reverse a drain
//	GET  /debugz                            flight recorder + recent timeline
//	GET  /metrics/federate                  merged member metrics, node-labeled
//
// Run ids returned by the coordinator are qualified with the owning
// member ("run-000017@gspc-2"), in the 202 body, the Location header,
// and the X-Gspc-Run header; pass them back verbatim.
type Server struct {
	co  *Coordinator
	mux *http.ServeMux
}

// NewServer wires the routes for a coordinator.
func NewServer(co *Coordinator) *Server {
	s := &Server{co: co, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handleProm)
	s.mux.HandleFunc("GET /versionz", s.handleVersion)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRunStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	s.mux.HandleFunc("GET /v1/cluster/members", s.handleMembers)
	s.mux.HandleFunc("GET /v1/cluster/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/cluster/members/{name}/drain", s.handleDrain)
	s.mux.HandleFunc("POST /v1/cluster/members/{name}/undrain", s.handleUndrain)
	s.mux.HandleFunc("GET /debugz", s.handleDebug)
	s.mux.HandleFunc("GET /metrics/federate", s.handleFederate)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Gspc-Coordinator", s.co.cfg.Name)
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// qualifyRun renders a cluster-wide run id: the node-local id plus the
// member that owns it.
func qualifyRun(id, node string) string { return id + "@" + node }

// splitRun parses a qualified run id back into (local id, node).
func splitRun(qualified string) (id, node string, ok bool) {
	i := strings.LastIndexByte(qualified, '@')
	if i <= 0 || i == len(qualified)-1 {
		return "", "", false
	}
	return qualified[:i], qualified[i+1:], true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	alive := s.co.currentRing().Len()
	body := map[string]any{
		"status":        "ready",
		"members_total": len(s.co.names),
		"members_ring":  alive,
	}
	if alive == 0 {
		body["status"] = "unready"
		body["reason"] = "no routable members"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.co.Metrics())
}

func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	w.Write(s.co.PromExposition())
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, telemetry.BuildInfo())
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	res, err := s.co.forwardAny(r.Context(), "/v1/experiments")
	if err != nil {
		s.writeForwardError(w, err)
		return
	}
	s.relay(w, res, "")
}

func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"coordinator": s.co.cfg.Name,
		"ring_nodes":  s.co.currentRing().Nodes(),
		"members":     s.co.Members(),
	})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.co.Drain(name) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown member %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"member": name, "state": "draining"})
}

func (s *Server) handleUndrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.co.Undrain(name) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown member %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"member": name, "state": "routable"})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if len(body) > maxRequestBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	// Normalize locally so the routing key is the node's cache key: the
	// coordinator and every engine agree on it by construction. A request
	// the engines would reject fails here without a forward.
	nreq, err := req.Normalize()
	if err != nil {
		var bad *service.BadRequestError
		if errors.As(err, &bad) {
			writeError(w, http.StatusBadRequest, bad.Reason)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := nreq.Key()
	s.co.submits.Add(1)

	// Every submit gets a coordinator-side run: adopt an inbound trace id
	// (a client or upstream coordinator minted one) or mint a fresh one,
	// and thread the run through the routing path so forwards, hedges,
	// and replication record spans against it. The members the submit
	// reaches adopt the same id via the propagated X-Gspc-Trace-Id, which
	// is what lets /v1/runs/{id}/trace stitch the two sides later.
	traceID := r.Header.Get(service.HeaderTraceID)
	inherited := traceID != ""
	if !inherited {
		traceID = telemetry.NewTraceID()
	}
	run := telemetry.NewRun(traceID, coordTraceMaxSpans)
	if inherited {
		run.ParentSpan = r.Header.Get(service.HeaderParentSpan)
	}
	w.Header().Set(service.HeaderTraceID, run.TraceID)
	ctx := telemetry.NewContext(r.Context(), run)

	sync := r.URL.Query().Get("wait") != "0"
	mode := "async"
	if sync {
		mode = "sync"
	}
	root := run.Start("submit", "cluster",
		telemetry.String("key", key), telemetry.String("mode", mode))

	var res *fwdResult
	if sync {
		res, err = s.co.submitSync(ctx, key, r.URL.RawQuery, body)
	} else {
		res, err = s.co.forwardRun(ctx, key, r.URL.RawQuery, body)
	}
	if err != nil {
		root.Attr(telemetry.String("outcome", outcomeClass(err))).End()
		s.writeForwardError(w, err)
		return
	}
	root.Attr(telemetry.String("outcome", outcomeOK),
		telemetry.Int("status", int64(res.status))).End()

	node := res.nodeName()
	// Retain the coordinator run under the qualified run id so the trace
	// endpoint can stitch; first registration wins, so a coalesced replay
	// never displaces the submit that actually routed.
	if id := res.header.Get("X-Gspc-Run"); id != "" && node != "" {
		s.co.traces.Put(qualifyRun(id, node), traceEntry{run: run, node: node})
	}

	// A fresh synchronous result fans out to the key's ring successors
	// so an owner failure later degrades to replica-served reads.
	if sync && !res.coalesced && res.status == http.StatusOK &&
		res.header.Get("X-Gspc-Cache") == "miss" && node != "" {
		s.co.replicate(run, key, nreq.Experiment, res.header.Get("X-Gspc-Run"), res.body, node)
	}

	if res.status == http.StatusAccepted && node != "" {
		// Rewrite the async ack so the id is resolvable through the
		// coordinator: "run-000017" → "run-000017@gspc-2".
		var ack map[string]string
		if json.Unmarshal(res.body, &ack) == nil && ack["id"] != "" {
			ack["id"] = qualifyRun(ack["id"], node)
			s.co.traces.Put(ack["id"], traceEntry{run: run, node: node})
			w.Header().Set("Location", "/v1/runs/"+ack["id"])
			for k, v := range relayHeaders(res.header) {
				w.Header().Set(k, v)
			}
			writeJSON(w, http.StatusAccepted, ack)
			return
		}
	}
	s.relay(w, res, node)
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	id, node, ok := s.splitKnownRun(w, r)
	if !ok {
		return
	}
	s.co.statusReads.Add(1)
	res, err := s.co.forwardQuery(r.Context(), node, "/v1/runs/"+id)
	if err != nil {
		s.writeForwardError(w, err)
		return
	}
	s.relay(w, res, node)
}

// handleRunTrace serves a run's distributed trace. The member's exported
// document is fetched as usual; when the coordinator still retains its
// own run for the submit, the two are stitched into one Perfetto
// document — coordinator spans on pid 1, member spans on pid 2, member
// timestamps rebased through the clock-offset estimate. Otherwise the
// member document is relayed unstitched (X-Gspc-Trace-Stitched: 0).
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	qualified := r.PathValue("id")
	id, node, ok := s.splitKnownRun(w, r)
	if !ok {
		return
	}
	s.co.statusReads.Add(1)
	res, err := s.co.forwardQuery(r.Context(), node, "/v1/runs/"+id+"/trace")
	if err != nil {
		s.writeForwardError(w, err)
		return
	}
	if res.status != http.StatusOK {
		s.relay(w, res, node)
		return
	}
	entry, retained := s.co.traces.Peek(qualified)
	if !retained {
		s.co.traceFallbacks.Add(1)
		w.Header().Set("X-Gspc-Trace-Stitched", "0")
		s.relay(w, res, node)
		return
	}
	m, _ := s.co.Member(node)
	stitched, err := stitchTrace(entry.run, s.co.cfg.Name, node, res.body, m.offsets.Estimate())
	if err != nil {
		s.co.traceFallbacks.Add(1)
		s.co.cfg.Logger.Warn("trace stitch failed, relaying member document",
			"coordinator", s.co.cfg.Name, "run_id", qualified, "node", node,
			"trace_id", entry.run.TraceID, "err", err)
		w.Header().Set("X-Gspc-Trace-Stitched", "0")
		s.relay(w, res, node)
		return
	}
	s.co.tracesStitched.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Gspc-Trace-Stitched", "1")
	w.Header().Set(service.HeaderTraceID, entry.run.TraceID)
	w.WriteHeader(http.StatusOK)
	w.Write(stitched)
}

// splitKnownRun parses {id} as a qualified run id and 404s unknown
// shapes and members.
func (s *Server) splitKnownRun(w http.ResponseWriter, r *http.Request) (id, node string, ok bool) {
	id, node, ok = splitRun(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound,
			"cluster run ids look like run-000017@node; this one has no @node suffix")
		return "", "", false
	}
	if _, known := s.co.Member(node); !known {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown member %q", node))
		return "", "", false
	}
	return id, node, true
}

// handleEvents streams the cluster timeline as NDJSON, oldest first.
// ?since=N resumes past a previously returned cursor (the
// X-Gspc-Events-Cursor header carries the newest Seq); ?max=N caps the
// batch.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	var since int64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "since must be a non-negative integer cursor")
			return
		}
		since = n
	}
	max := 0
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "max must be a non-negative integer")
			return
		}
		max = n
	}
	events, cursor := s.co.events.Since(since, max)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Gspc-Events-Cursor", strconv.FormatInt(cursor, 10))
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, ev := range events {
		enc.Encode(ev)
	}
}

// handleDebug serves the coordinator flight recorder — recent routing
// decisions, newest first — plus the tail of the cluster timeline, so
// one curl answers "what has the coordinator been doing lately".
func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	events, cursor := s.co.events.Since(0, 0)
	const debugEventTail = 64
	if len(events) > debugEventTail {
		events = events[len(events)-debugEventTail:]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"coordinator":     s.co.cfg.Name,
		"ring_generation": s.co.ringGeneration(),
		"total_events":    s.co.flight.Total(),
		"events":          s.co.flight.Events(),
		"cluster_events":  events,
		"events_cursor":   cursor,
		"traces_retained": s.co.traces.Len(),
	})
}

// handleFederate serves the merged member metrics (node-labeled). 404
// when federation is disabled, so a scraper fails loudly rather than
// reading an empty page forever.
func (s *Server) handleFederate(w http.ResponseWriter, r *http.Request) {
	if s.co.cfg.DisableFederation {
		writeError(w, http.StatusNotFound, "metrics federation is disabled on this coordinator")
		return
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	w.Write(s.co.FederatedExposition())
}

// relayHeaders selects the response headers worth propagating from a
// member: serving metadata and backpressure hints, never hop-by-hop
// headers.
func relayHeaders(h http.Header) map[string]string {
	out := map[string]string{}
	for _, k := range []string{"Content-Type", "Retry-After",
		"X-Gspc-Cache", "X-Gspc-Duration-Ms", "X-Gspc-Node"} {
		if v := h.Get(k); v != "" {
			out[k] = v
		}
	}
	return out
}

// nodeName resolves which member produced a forwarded response: the
// member the coordinator picked, or — for coalesced replays — the
// X-Gspc-Node header the serving node stamped.
func (r *fwdResult) nodeName() string {
	if r.member != nil {
		return r.member.Spec.Name
	}
	return r.header.Get("X-Gspc-Node")
}

// relay writes a forwarded response to the client, qualifying the run
// id header with the serving node when known.
func (s *Server) relay(w http.ResponseWriter, res *fwdResult, node string) {
	for k, v := range relayHeaders(res.header) {
		w.Header().Set(k, v)
	}
	if node == "" {
		node = res.nodeName()
	}
	if run := res.header.Get("X-Gspc-Run"); run != "" && node != "" {
		w.Header().Set("X-Gspc-Run", qualifyRun(run, node))
	}
	if res.coalesced {
		w.Header().Set("X-Gspc-Cluster-Coalesced", "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func (s *Server) writeForwardError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoMembers):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request cancelled while forwarding: "+err.Error())
	default:
		writeError(w, http.StatusBadGateway, "forward failed: "+err.Error())
	}
}
