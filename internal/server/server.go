// Package server is polorad's HTTP API over the content-addressed policy
// store. The wire formats are exactly the CLI's: /v1/extract responds
// with the bytes `polora export` writes and /v1/diff with the JSON
// `polora diff -json` prints, so the CLI, the store, and the service
// speak one representation.
//
// Endpoints:
//
//	POST /v1/libraries         {"name", "sources", "options"?} → {"fingerprint", "created"}
//	PUT  /v1/libraries/{name}  {"sources", "options"?}         → {"fingerprint", "created",
//	                           "incremental", "entries", "reused", "reanalyzed"}
//	POST /v1/extract           {"fingerprint", "domain"?}      → policy wire JSON
//	POST /v1/diff              {"a", "b", "domain"?}           → diff report JSON
//	GET  /v1/drift             drift timeline (?limit=N)      → reconcile.TimelineWire
//	GET  /v1/drift/{pair}      latest pair delta + alert      → reconcile.PairStatus
//	POST /v1/campaign          campaign.ShardRequest          → campaign.StatusResponse (202)
//	GET  /v1/campaign/{id}     shard job status/result        → campaign.StatusResponse
//	POST /v1/batch             batch.Request (≤ MaxBatchItems) → batch.ContentType stream,
//	                           one frame per item in input order, flushed per item:
//	                           a JSON header line, then on success "result" raw
//	                           payload bytes and a newline
//	GET  /v1/blob/{fp}         local-only policy blob         → policy wire JSON
//	GET  /healthz                                       → "ok"
//	GET  /statsz                                        → store counters
//	GET  /metricsz                                      → Prometheus text exposition
//	GET  /debug/pprof/*                                 → runtime profiles (opt-in)
//
// Errors are a versioned envelope {"code", "message", "detail"} whose
// code field is stable across releases (see the Code* constants);
// clients should dispatch on it, never on message text.
//
// Handlers run under the request context: a client that disconnects
// stops its extraction (unless another request shares it), and server
// drain cancels in-flight work.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"policyoracle/internal/oracle"
	"policyoracle/internal/reconcile"
	"policyoracle/internal/secmodel"
	"policyoracle/internal/store"
	"policyoracle/internal/telemetry"
)

// MaxRequestBytes bounds an upload body. The bundled corpora are tens of
// kilobytes; 32 MiB leaves room for paper-scale generated libraries.
const MaxRequestBytes = 32 << 20

// Stable machine-readable error codes carried in ErrorResponse.Code.
const (
	// CodeBadRequest: the request body failed to decode or validate.
	CodeBadRequest = "bad_request"
	// CodePayloadTooLarge: the body exceeded MaxRequestBytes.
	CodePayloadTooLarge = "payload_too_large"
	// CodeUnknownLibrary: no bundle with the given fingerprint.
	CodeUnknownLibrary = "unknown_library"
	// CodeExtractFailed: extraction or persistence failed server-side.
	CodeExtractFailed = "extract_failed"
	// CodeShuttingDown: the request was cancelled by client disconnect or
	// server drain before it completed.
	CodeShuttingDown = "shutting_down"
	// CodeWatchDisabled: /v1/drift was queried but the server is not
	// running the reconcile controller (polorad started without -watch).
	CodeWatchDisabled = "watch_disabled"
	// CodeUnknownPair: the drift timeline has never observed this library
	// pair.
	CodeUnknownPair = "unknown_pair"
	// CodeUnknownDomain: the request named a check domain that is not
	// registered, or one this server does not serve (polorad -domains).
	CodeUnknownDomain = "unknown_domain"
	// CodeCampaignsDisabled: /v1/campaign was called but the server does
	// not execute campaign shards (polorad started without -campaigns).
	CodeCampaignsDisabled = "campaigns_disabled"
	// CodeUnknownCampaign: no campaign job with the given ID (never
	// created, or evicted after completion).
	CodeUnknownCampaign = "unknown_campaign"
	// CodeBatchTooLarge: a /v1/batch request carried more items than the
	// per-request cap (MaxBatchItems). The whole request is rejected
	// before any item runs; split it into smaller batches.
	CodeBatchTooLarge = "batch_too_large"
)

// ErrorResponse is the error envelope every non-2xx API response carries.
type ErrorResponse struct {
	// Code is a stable machine-readable identifier (Code* constants).
	Code string `json:"code"`
	// Message is a short human-readable description of the code.
	Message string `json:"message"`
	// Detail is the specific failure, not guaranteed stable.
	Detail string `json:"detail,omitempty"`
}

var codeMessages = map[string]string{
	CodeBadRequest:        "the request could not be decoded or validated",
	CodePayloadTooLarge:   "the request body exceeds the size limit",
	CodeUnknownLibrary:    "no library bundle with this fingerprint",
	CodeExtractFailed:     "policy extraction failed",
	CodeShuttingDown:      "the request was cancelled before completion",
	CodeWatchDisabled:     "the reconcile controller is not running (start polorad with -watch)",
	CodeUnknownPair:       "no drift observations for this library pair",
	CodeUnknownDomain:     "no check domain with this ID is served here",
	CodeCampaignsDisabled: "campaign execution is not enabled (start polorad with -campaigns)",
	CodeUnknownCampaign:   "no campaign job with this ID",
	CodeBatchTooLarge:     "the batch carries more items than the per-request cap",
}

// DriftProvider is the reconcile-controller surface the drift endpoints
// serve from; *reconcile.Controller implements it. An interface so tests
// can stub it and so the server compiles the watch feature out to a 501
// when polorad runs without -watch.
type DriftProvider interface {
	// Enqueue marks a library as needing reconciliation (called after
	// every successful PUT).
	Enqueue(name string)
	// Timeline snapshots the newest limit entries (all when limit <= 0).
	Timeline(limit int) reconcile.TimelineWire
	// Pairs lists the latest status of every observed pair.
	Pairs() []*reconcile.PairStatus
	// Pair returns one pair's latest status including the reconciled diff
	// report; reconcile.ErrUnknownPair when never observed.
	Pair(ctx context.Context, key string) (*reconcile.PairStatus, error)
}

// Options configures the optional subsystems of a Server.
type Options struct {
	// Registry is the metrics registry /metricsz exposes. Nil allocates a
	// private one, so the scrape endpoint always works; pass the registry
	// shared with the store to see its series too.
	Registry *telemetry.Registry
	// Logger receives one structured line per completed request. Nil
	// discards them.
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals and cost CPU, so enabling is a deliberate
	// operator action (polorad -pprof).
	Pprof bool
	// Drift connects the reconcile controller: PUTs enqueue
	// reconciliation and /v1/drift serves its timeline. Nil (no -watch)
	// answers drift queries with 501 watch_disabled.
	Drift DriftProvider
	// Domains restricts the check domains this server accepts (polorad
	// -domains): uploads and domain assertions naming a domain outside
	// the list fail with the stable unknown_domain code. Empty serves
	// every registered domain. IDs are as registered; an empty string in
	// the list means the default domain.
	Domains []string
	// Campaigns enables /v1/campaign shard execution (polorad
	// -campaigns). Off by default: a campaign shard is minutes of CPU
	// driven by an unauthenticated request body, so serving one is a
	// deliberate operator action. Disabled servers answer with 501
	// campaigns_disabled.
	Campaigns bool
	// BatchWorkers bounds how many /v1/batch items one request executes
	// concurrently (<= 0 means DefaultBatchWorkers). The store's own
	// MaxInflight still bounds extractions globally; this keeps a single
	// batch from monopolizing that budget.
	BatchWorkers int
}

// Server serves the policy-oracle API over one Store.
type Server struct {
	st           *store.Store
	mux          *http.ServeMux
	hm           *telemetry.HTTPMetrics
	bm           *telemetry.BatchMetrics
	log          *slog.Logger
	drift        DriftProvider
	domains      map[string]bool // nil = every registered domain
	campaigns    *campaignRunner // nil = campaigns disabled
	batchWorkers int
}

// New returns a Server over st.
func New(st *store.Store, opts Options) *Server {
	if opts.Registry == nil {
		opts.Registry = telemetry.New()
	}
	if opts.Logger == nil {
		opts.Logger = telemetry.NopLogger()
	}
	if opts.BatchWorkers <= 0 {
		opts.BatchWorkers = DefaultBatchWorkers
	}
	s := &Server{
		st:           st,
		mux:          http.NewServeMux(),
		hm:           telemetry.NewHTTPMetrics(opts.Registry),
		bm:           telemetry.NewBatchMetrics(opts.Registry),
		log:          opts.Logger,
		drift:        opts.Drift,
		batchWorkers: opts.BatchWorkers,
	}
	if opts.Campaigns {
		s.campaigns = newCampaignRunner(opts.Logger, opts.Registry)
	}
	if len(opts.Domains) > 0 {
		s.domains = make(map[string]bool, len(opts.Domains))
		for _, id := range opts.Domains {
			s.domains[secmodel.DomainLabel(id)] = true
		}
	}
	s.handle("POST /v1/libraries", s.handleLibraries)
	s.handle("PUT /v1/libraries/{name}", s.handleUpdate)
	s.handle("POST /v1/extract", s.handleExtract)
	s.handle("POST /v1/diff", s.handleDiff)
	s.handle("GET /v1/drift", s.handleDrift)
	s.handle("GET /v1/drift/{pair}", s.handleDriftPair)
	s.handle("POST /v1/campaign", s.handleCampaignPost)
	s.handle("GET /v1/campaign/{id}", s.handleCampaignGet)
	s.handle("POST /v1/batch", s.handleBatch)
	s.handle("GET /v1/blob/{fp}", s.handleBlob)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /statsz", s.handleStatsz)
	s.handle("GET /metricsz", opts.Registry.Handler().ServeHTTP)
	if opts.Pprof {
		// Mounted explicitly rather than via the package's DefaultServeMux
		// side effects, so profiles exist only when asked for.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// handle registers h under pattern, wrapped with the request middleware.
// The route label comes from the registration pattern, not the URL, so
// label cardinality is fixed no matter what clients request.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	_, route, ok := strings.Cut(pattern, " ")
	if !ok {
		route = pattern
	}
	s.mux.Handle(pattern, s.instrument(route, h))
}

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.hm.Inflight.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.hm.Inflight.Dec()
		elapsed := time.Since(start)
		s.hm.Requests.With(r.Method, route, strconv.Itoa(sw.status)).Inc()
		s.hm.Duration.With(route).ObserveDuration(elapsed)
		s.log.Info("request",
			"method", r.Method, "route", route, "status", sw.status,
			"duration", elapsed, "bytes", sw.bytes, "remote", r.RemoteAddr)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// UploadRequest is the body of POST /v1/libraries.
type UploadRequest struct {
	Name    string            `json:"name"`
	Sources map[string]string `json:"sources"`
	Options store.OptionsWire `json:"options"`
}

// UploadResponse is the body of a successful upload.
type UploadResponse struct {
	Fingerprint string `json:"fingerprint"`
	Created     bool   `json:"created"`
}

// UpdateRequest is the body of PUT /v1/libraries/{name}: a new source
// revision of the named library. The response is store.UpdateResult; the
// fingerprint it returns serves /v1/extract and /v1/diff as usual, with
// unaffected entry policies spliced from the library's previous revision
// rather than re-analyzed.
type UpdateRequest struct {
	Sources map[string]string `json:"sources"`
	Options store.OptionsWire `json:"options"`
}

// DiffRequest is the body of POST /v1/diff.
type DiffRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	// Domain, when set, asserts the check domain of both compared policy
	// sets: an unregistered or disallowed ID fails with unknown_domain
	// and a report of a different domain with bad_request. Empty asserts
	// nothing (assert the default domain with its registered ID).
	Domain string `json:"domain,omitempty"`
}

type extractRequest struct {
	Fingerprint string `json:"fingerprint"`
	// Domain, when set, asserts the check domain of the served policy
	// blob, with the same semantics as DiffRequest.Domain.
	Domain string `json:"domain,omitempty"`
}

func (s *Server) handleLibraries(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if !s.decode(w, r, &req) {
		return
	}
	if _, err := s.resolveDomain(req.Options.Domain); err != nil {
		s.fail(w, http.StatusBadRequest, CodeUnknownDomain, err)
		return
	}
	fp, created, err := s.st.Put(req.Name, req.Sources, req.Options)
	if err != nil {
		s.failStore(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	s.writeJSON(w, status, UploadResponse{Fingerprint: fp, Created: created})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if _, err := s.resolveDomain(req.Options.Domain); err != nil {
		s.fail(w, http.StatusBadRequest, CodeUnknownDomain, err)
		return
	}
	res, err := s.st.Update(r.Context(), r.PathValue("name"), req.Sources, req.Options)
	if err != nil {
		s.failStore(w, err)
		return
	}
	if s.drift != nil {
		// The controller coalesces per name, so enqueueing every revision
		// (even no-op re-uploads: Created false still moves the index) is
		// cheap and keeps the drift timeline level with the store.
		s.drift.Enqueue(r.PathValue("name"))
	}
	status := http.StatusOK
	if res.Created {
		status = http.StatusCreated
	}
	s.writeJSON(w, status, res)
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req extractRequest
	if !s.decode(w, r, &req) {
		return
	}
	blob, f := s.extract(r.Context(), req.Fingerprint, req.Domain)
	s.writePayload(w, blob, f)
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	if !s.decode(w, r, &req) {
		return
	}
	wire, f := s.diff(r.Context(), req.A, req.B, req.Domain)
	s.writePayload(w, wire, f)
}

// failure is a failed request: the HTTP status and stable code it maps
// to, and its cause. It is not an error value; handlers write it as an
// error envelope and batch items carry it in theirs.
type failure struct {
	status int
	code   string
	err    error
}

// extract returns fp's policy blob, the raw persisted bytes and so
// byte-identical to `polora export` output. A non-empty domain asserts
// the blob's domain. It serves /v1/extract and batch extract items.
func (s *Server) extract(ctx context.Context, fp, domain string) ([]byte, *failure) {
	want, f := s.assertedDomain(domain)
	if f != nil {
		return nil, f
	}
	blob, err := s.st.PoliciesContext(ctx, fp)
	if err != nil {
		return nil, storeFailure(err)
	}
	if want != "" {
		// Only the domain header matters here. encoding/json still scans
		// the whole blob, but skips building the policy set.
		var hdr struct {
			Domain string `json:"domain"`
		}
		if json.Unmarshal(blob, &hdr) == nil && secmodel.DomainLabel(hdr.Domain) != want {
			return nil, &failure{http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("policies of %s are in domain %q, not the asserted %q",
					fp, secmodel.DomainLabel(hdr.Domain), want)}
		}
	}
	return blob, nil
}

// diff returns the canonical wire bytes of a's and b's comparison:
// identical to `polora diff -json` output and to the report the drift
// timeline records a digest of. A non-empty domain asserts the compared
// policies' domain. It serves /v1/diff and batch diff items, a repeated
// pair from the store's report cache.
func (s *Server) diff(ctx context.Context, a, b, domain string) ([]byte, *failure) {
	want, f := s.assertedDomain(domain)
	if f != nil {
		return nil, f
	}
	r, err := s.st.DiffWire(ctx, a, b)
	if err != nil {
		return nil, storeFailure(err)
	}
	if want != "" && secmodel.DomainLabel(r.Domain) != want {
		return nil, &failure{http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("compared policies are in domain %q, not the asserted %q",
				secmodel.DomainLabel(r.Domain), want)}
	}
	return r.Wire, nil
}

// writePayload writes an extract or diff payload verbatim, or its
// failure as an error envelope.
func (s *Server) writePayload(w http.ResponseWriter, payload []byte, f *failure) {
	if f != nil {
		s.fail(w, f.status, f.code, f.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// handleDrift serves the drift timeline: the newest ?limit=N entries
// (all by default), exactly the wire `polora drift -json` prints.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if s.drift == nil {
		s.fail(w, http.StatusNotImplemented, CodeWatchDisabled,
			errors.New("drift timeline requires -watch"))
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("limit %q is not a non-negative integer", v))
			return
		}
		limit = n
	}
	s.writeJSON(w, http.StatusOK, s.drift.Timeline(limit))
}

// handleDriftPair serves one pair's latest observation, including the
// full reconciled diff report and the current alert state.
func (s *Server) handleDriftPair(w http.ResponseWriter, r *http.Request) {
	if s.drift == nil {
		s.fail(w, http.StatusNotImplemented, CodeWatchDisabled,
			errors.New("drift timeline requires -watch"))
		return
	}
	key := r.PathValue("pair")
	if _, _, ok := reconcile.SplitPair(key); !ok {
		s.fail(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("pair %q is not of the form a~b", key))
		return
	}
	st, err := s.drift.Pair(r.Context(), key)
	if err != nil {
		if errors.Is(err, reconcile.ErrUnknownPair) {
			s.fail(w, http.StatusNotFound, CodeUnknownPair, err)
			return
		}
		s.failStore(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.st.Stats())
}

// decode reads a bounded JSON body, rejecting unknown fields so typos in
// requests fail loudly instead of extracting under default options.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		status, code := http.StatusBadRequest, CodeBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status, code = http.StatusRequestEntityTooLarge, CodePayloadTooLarge
		}
		s.fail(w, status, code, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// resolveDomain validates a domain ID against the registry and the
// server's allowlist. Empty means the default domain (always allowed by
// an empty allowlist, like every other registered domain).
func (s *Server) resolveDomain(id string) (*secmodel.Domain, error) {
	d, err := secmodel.ResolveDomain(id)
	if err != nil {
		return nil, err
	}
	if s.domains != nil && !s.domains[d.ID()] {
		return nil, fmt.Errorf("%w: %q is not served here (polorad -domains)",
			secmodel.ErrUnknownDomain, d.ID())
	}
	return d, nil
}

// assertedDomain resolves a request's optional domain assertion to the
// registered ID it names. An empty field asserts nothing and returns "";
// an invalid one fails with unknown_domain.
func (s *Server) assertedDomain(id string) (string, *failure) {
	if id == "" {
		return "", nil
	}
	d, err := s.resolveDomain(id)
	if err != nil {
		return "", &failure{http.StatusBadRequest, CodeUnknownDomain, err}
	}
	return d.ID(), nil
}

// storeFailure maps a store-layer error to its HTTP status and stable
// error code. Shared by the single-item handlers and the per-item
// envelopes of /v1/batch, so an item fails with exactly the code its
// standalone request would have.
func storeFailure(err error) *failure {
	f := &failure{http.StatusInternalServerError, CodeExtractFailed, err}
	switch {
	case errors.Is(err, store.ErrNotFound):
		f.status, f.code = http.StatusNotFound, CodeUnknownLibrary
	case errors.Is(err, secmodel.ErrUnknownDomain):
		f.status, f.code = http.StatusBadRequest, CodeUnknownDomain
	case errors.Is(err, oracle.ErrDomainMismatch):
		f.status, f.code = http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, store.ErrMalformed), errors.Is(err, store.ErrInvalid):
		f.status, f.code = http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		f.status, f.code = http.StatusServiceUnavailable, CodeShuttingDown
	}
	return f
}

func (s *Server) failStore(w http.ResponseWriter, err error) {
	f := storeFailure(err)
	s.fail(w, f.status, f.code, f.err)
}

func (s *Server) fail(w http.ResponseWriter, status int, code string, err error) {
	s.writeJSON(w, status, ErrorResponse{
		Code:    code,
		Message: codeMessages[code],
		Detail:  err.Error(),
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
