// Package hub exposes a model repository over HTTP — the "remote
// filesystem" role TF-Hub and PyTorch Hub play in Figure 1. The server
// wraps a repo.Repository with the bare-bone publish/load/list REST
// interface existing hubs provide; the client implements the same Go
// surface as a local repository so Sommelier can interpose on a remote
// hub exactly as on a local one (§6: "only 3 lines of configuration
// change to migrate Sommelier across model repositories").
//
// Endpoints:
//
//	GET  /v1/models            — list model metadata (JSON)
//	GET  /v1/models/{id}       — fetch one model as a pack (manifest plus
//	                             raw chunks, one body; see chunks.go), or
//	                             its chunk manifest with ?format=manifest
//	PUT  /v1/models/{id}       — publish a model (pack body), or by
//	                             manifest (chunk negotiation; see chunks.go)
//	DELETE /v1/models/{id}     — remove a model
//	HEAD/GET/PUT /v1/chunks/{hash} — probe/fetch/upload one tensor chunk
//	GET  /v1/query?q=…         — run a Sommelier query (JSON, or a results
//	                             frame when Accept asks; needs WithQuerier)
//	POST /v1/query             — run a query batch ({"queries":[…]} body or
//	                             a queries frame; answered like GET; needs
//	                             WithQuerier or WithBatchQuerier)
//	GET  /v1/metrics           — observability snapshot (JSON; needs WithObserver)
//	GET  /v1/tracez            — recent spans, oldest first (JSON; needs WithObserver)
//	GET  /v1/healthz           — liveness + model count (JSON)
//
// Query answers and write acks carry the hub's write generation in the
// HeaderGeneration response header.
package hub

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/obs"
	"sommelier/internal/query"
	"sommelier/internal/repo"
)

// Indexer keeps a serving catalog current with the uploads a hub
// accepts — the curated-hub mode where Sommelier indexes models as they
// arrive instead of in offline batches. Accept calls publish, which
// stores the upload in the server's store and returns the stored model
// with its tensor identity (taken from the manifest the upload was
// hydrated from, so the indexer may skip work the model shares with
// models it has seen, by content), then indexes the model. When
// indexing fails it deletes a fresh upload, keeps an overwritten one,
// and returns an error; an ID that is already indexed is success, since
// re-publishing a version is legal hub behaviour. The ctx is the upload
// request's context: a client that gives up mid-upload cancels the
// pairwise analysis too.
//
// The indexer reads and rolls back through its own store, so that store
// must be the server's: every wiring passes the engine's own store to
// NewServer. *sommelier.Engine is an Indexer (Engine.Accept).
type Indexer interface {
	Accept(ctx context.Context, id string, publish func() (*graph.Model, cas.Identity, error)) error
}

// Querier answers query strings for the /v1/query endpoint. A
// []query.Result answer goes out as a results frame to a client that
// asks for one (see frame.go); any other answer, and every answer to a
// client that does not ask, is marshaled to JSON as-is.
// *sommelier.Engine's QueryContext fits after a one-line adaptation
// (see cmd/sommhub); the indirection keeps this package free of an
// upward dependency on the root engine.
type Querier func(ctx context.Context, q string) (any, error)

// QueryError is the wire form of one refused query. Code carries
// machine-readable classifications a remote caller needs to branch on
// without string matching; the only code this package defines is
// CodeUnknownReference.
type QueryError struct {
	Message string `json:"message"`
	Code    string `json:"code,omitempty"`
}

// CodeUnknownReference marks a per-query failure whose cause is that
// the answering catalog does not hold the query's reference model — an
// expected per-shard condition in a sharded deployment, which cluster
// coordinators convert into an empty shard contribution.
const CodeUnknownReference = "unknown_reference"

// Error implements error.
func (e *QueryError) Error() string { return e.Message }

// Is reads a refusal coded CodeUnknownReference as
// query.ErrUnknownReference, the error the refusing engine returned.
func (e *QueryError) Is(target error) bool {
	return e.Code == CodeUnknownReference && errors.Is(query.ErrUnknownReference, target)
}

// NewQueryError is the wire form of a querier's error: its message, and
// CodeUnknownReference when it wraps query.ErrUnknownReference. The
// server builds every refusal of a Querier through it, and a
// BatchQuerier builds its error slots with it.
func NewQueryError(err error) *QueryError {
	qe := &QueryError{Message: err.Error()}
	if errors.Is(err, query.ErrUnknownReference) {
		qe.Code = CodeUnknownReference
	}
	return qe
}

// BatchQuerier answers query batches for POST /v1/query: results and
// errors are aligned with the input by index, exactly one of
// results[i]/errs[i] meaningful per slot. *sommelier.Engine's
// QueryBatchContext fits after a small adaptation (see cmd/sommhub).
// When only a Querier is configured the server loops it instead, so
// the batch endpoint works against any query-enabled hub.
type BatchQuerier func(ctx context.Context, qs []string) ([]any, []*QueryError)

// HeaderGeneration names the response header that carries the hub's
// write generation, "<boot>.<n>": boot names the hub process and n
// counts, from 0 at its start, the writes that changed the store (a
// model PUT, a manifest publish, a DELETE). A /v1/query answer carries
// the value read before the query ran, so an answer carrying n has seen
// every write whose ack carried n or less under the same boot; a write
// ack carries the value read after the write committed. Chunk
// transfers and loads do not carry it.
const HeaderGeneration = "X-Sommelier-Generation"

// DefaultMaxBodyBytes caps PUT bodies; a bare-bone hub should not be
// taken down by one oversized (or unbounded) upload.
const DefaultMaxBodyBytes int64 = 64 << 20

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxBodyBytes sets the PUT body limit; n <= 0 keeps the default.
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithIndexer makes the server index every accepted upload through ix,
// whose store must be the server's (see Indexer). An upload that fails
// to index is answered 500 after ix's rollback, keeping "published
// implies indexed" true for models that arrived through this server.
func WithIndexer(ix Indexer) ServerOption {
	return func(s *Server) { s.indexer = ix }
}

// WithQuerier enables GET /v1/query, answering query strings through q.
func WithQuerier(q Querier) ServerOption {
	return func(s *Server) { s.querier = q }
}

// WithBatchQuerier enables the batched form of POST /v1/query to be
// answered natively (one snapshot, shared scratch state) instead of by
// looping the single-query Querier.
func WithBatchQuerier(bq BatchQuerier) ServerOption {
	return func(s *Server) { s.batchQuerier = bq }
}

// WithShardInfo declares the server's place in a shard cluster: this
// node serves shard `shard` of `shards`. The identity is reported in
// /v1/healthz so coordinators and operators can confirm a node serves
// the partition they think it does before routing traffic at it.
func WithShardInfo(shard, shards int) ServerOption {
	return func(s *Server) { s.shard, s.shards = shard, shards }
}

// WithServerObserver attaches an observability handle: every endpoint
// records a request counter and latency histogram through it
// (hub_<op>_requests_total / hub_<op>_errors_total / hub_<op>_ms, for
// op in list, fetch, upload, delete, query, healthz), the fetch endpoint
// also counts the packs it served (hub_fetch_pack_total,
// hub_fetch_bytes_total of pack body), and the snapshot
// is served at /v1/metrics with recent spans at /v1/tracez. Pass the
// same observer the engine uses and /v1/metrics becomes the one unified
// snapshot — hub, catalog, and query metrics together.
func WithServerObserver(o *obs.Observer) ServerOption {
	return func(s *Server) { s.obs = o }
}

// Server serves a repository over HTTP.
type Server struct {
	store   repo.Store
	mux     *http.ServeMux
	maxBody int64
	indexer Indexer
	querier Querier
	// batchQuerier answers POST /v1/query natively; when nil the server
	// loops querier per batch element instead.
	batchQuerier BatchQuerier
	obs          *obs.Observer
	// shard/shards identify this node's partition when it runs as part
	// of a cluster; shards == 0 means standalone.
	shard, shards int
	// boot names this server process in HeaderGeneration: a restarted
	// hub counts gen from 0 again under a new boot.
	boot string
	// gen is the write generation HeaderGeneration reports.
	gen atomic.Uint64
	// packs recycles servePack's rendered bodies.
	packs bufPool
	// uploads recycles the bodies of chunk and pack PUTs.
	uploads bufPool
}

// NewServer wraps a repository.
func NewServer(store repo.Store, opts ...ServerOption) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("hub: nil repository")
	}
	var boot [8]byte
	if _, err := rand.Read(boot[:]); err != nil {
		return nil, fmt.Errorf("hub: boot id: %w", err)
	}
	s := &Server{store: store, mux: http.NewServeMux(), maxBody: DefaultMaxBodyBytes, boot: hex.EncodeToString(boot[:])}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("/v1/models", s.instrument("list", s.handleList))
	s.mux.HandleFunc("/v1/models/", s.modelHandler())
	s.mux.HandleFunc("/v1/chunks/", s.instrument("chunk", s.handleChunk))
	s.mux.HandleFunc("/v1/query", s.instrument("query", s.handleQuery))
	s.mux.HandleFunc("/v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/tracez", s.handleTracez)
	s.mux.HandleFunc("/v1/healthz", s.instrument("healthz", s.handleHealthz))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusWriter remembers the status code a handler sent so instrument
// can count errors without re-deriving them.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint request counter,
// error counter, latency histogram, and a span named after the
// operation; the four names are built once, here, not per request.
// With no observer configured every obs call is a nil-safe no-op, so
// the wrapper costs nothing.
func (s *Server) instrument(op string, h http.HandlerFunc) http.HandlerFunc {
	requests, spanName := "hub_"+op+"_requests_total", "hub."+op
	hist, errs := "hub_"+op+"_ms", "hub_"+op+"_errors_total"
	return func(w http.ResponseWriter, r *http.Request) {
		s.obs.Counter(requests).Inc()
		ctx, span := s.obs.StartSpan(r.Context(), spanName, "")
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(ctx))
		s.obs.Histogram(hist).Observe(span.End())
		if sw.status >= 400 {
			s.obs.Counter(errs).Inc()
		}
	}
}

// metaJSON is the wire form of repo.Metadata.
type metaJSON struct {
	ID      string            `json:"id"`
	Name    string            `json:"name"`
	Version string            `json:"version"`
	Task    string            `json:"task"`
	Series  string            `json:"series,omitempty"`
	Notes   map[string]string `json:"annotations,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	health := map[string]any{
		"status": "ok",
		"models": s.store.Len(),
	}
	if s.shards > 0 {
		health["shard"] = s.shard
		health["shards"] = s.shards
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(health)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	out := []metaJSON{}
	for _, md := range s.store.List() {
		out = append(out, metaJSON{
			ID: md.ID, Name: md.Name, Version: md.Version,
			Task: string(md.Task), Series: md.Series, Notes: md.Annotations,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.obs.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	spans := s.obs.Tracer().Recent()
	if spans == nil {
		spans = []obs.SpanRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(spans); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// setGeneration puts generation g on the response's headers.
func (s *Server) setGeneration(w http.ResponseWriter, g uint64) {
	w.Header()[HeaderGeneration] = []string{s.boot + "." + strconv.FormatUint(g, 10)}
}

// wrote bumps the write generation after a write changed the store and
// puts the new value on the ack.
func (s *Server) wrote(w http.ResponseWriter) { s.setGeneration(w, s.gen.Add(1)) }

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.setGeneration(w, s.gen.Load())
	if r.Method == http.MethodPost {
		s.serveQueryBatch(w, r)
		return
	}
	if s.querier == nil {
		http.Error(w, "query endpoint not enabled on this hub", http.StatusNotImplemented)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	framed := wantsFrame(r)
	res, err := s.querier(r.Context(), q)
	if err != nil {
		if framed {
			writeFrame(w, http.StatusBadRequest, nil, []*QueryError{NewQueryError(err)})
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if rs, ok := res.([]query.Result); ok && framed {
		writeFrame(w, http.StatusOK, [][]query.Result{rs}, []*QueryError{nil})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{"query": q, "results": res}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// wantsFrame reports whether the request's Accept names the results
// frame.
func wantsFrame(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), ContentTypeResults)
}

// writeFrame answers with the results frame of rss and qerrs.
func writeFrame(w http.ResponseWriter, status int, rss [][]query.Result, qerrs []*QueryError) {
	body := appendResults(nil, rss, qerrs)
	h := w.Header()
	h.Set("Content-Type", ContentTypeResults)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// batchRequest/batchResponse are the POST /v1/query JSON forms. The
// response arrays are index-aligned with the request: for every i
// exactly one of results[i] (non-null) and errors[i] (non-null) holds.
type batchRequest struct {
	Queries []string `json:"queries"`
}

type batchResponse struct {
	Results []any         `json:"results"`
	Errors  []*QueryError `json:"errors"`
}

func (s *Server) serveQueryBatch(w http.ResponseWriter, r *http.Request) {
	if s.querier == nil && s.batchQuerier == nil {
		http.Error(w, "query endpoint not enabled on this hub", http.StatusNotImplemented)
		return
	}
	qs, err := readBatchRequest(http.MaxBytesReader(w, r.Body, s.maxBody), r)
	if err != nil {
		http.Error(w, fmt.Sprintf("decoding batch body: %v", err), http.StatusBadRequest)
		return
	}
	if len(qs) == 0 {
		http.Error(w, "empty query batch", http.StatusBadRequest)
		return
	}
	results, qerrs := s.runBatch(r.Context(), qs)
	if len(results) != len(qs) || len(qerrs) != len(qs) {
		http.Error(w, "batch querier returned misaligned results", http.StatusInternalServerError)
		return
	}
	if wantsFrame(r) {
		if rss, ok := frameable(results, qerrs); ok {
			writeFrame(w, http.StatusOK, rss, qerrs)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(batchResponse{Results: results, Errors: qerrs}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// readBatchRequest reads a batch's queries from body, a queries frame
// when the Content-Type names one and {"queries":[…]} otherwise.
func readBatchRequest(body io.Reader, r *http.Request) ([]string, error) {
	if r.Header.Get("Content-Type") != ContentTypeQueries {
		var req batchRequest
		err := json.NewDecoder(body).Decode(&req)
		return req.Queries, err
	}
	data, err := readBody(nil, body, r.ContentLength)
	if err != nil {
		return nil, err
	}
	return readQueries(data)
}

// frameable returns a batch's answers as results when every answered
// slot holds a []query.Result, the only answer the frame carries.
func frameable(results []any, qerrs []*QueryError) ([][]query.Result, bool) {
	rss := make([][]query.Result, len(results))
	for i, res := range results {
		if qerrs[i] != nil {
			continue
		}
		rs, ok := res.([]query.Result)
		if !ok {
			return nil, false
		}
		rss[i] = rs
	}
	return rss, true
}

// runBatch answers a batch through the native BatchQuerier when one is
// configured, else by looping the single-query Querier. Per-query
// failures never fail the batch.
func (s *Server) runBatch(ctx context.Context, qs []string) ([]any, []*QueryError) {
	if s.batchQuerier != nil {
		return s.batchQuerier(ctx, qs)
	}
	results := make([]any, len(qs))
	qerrs := make([]*QueryError, len(qs))
	for i, q := range qs {
		res, err := s.querier(ctx, q)
		if err != nil {
			qerrs[i] = NewQueryError(err)
			continue
		}
		results[i] = res
	}
	return results, qerrs
}

// modelHandler serves /v1/models/{id}, instrumented by method as the
// upload, delete or fetch endpoint.
func (s *Server) modelHandler() http.HandlerFunc {
	fetch := s.instrument("fetch", s.serveModel)
	upload := s.instrument("upload", s.serveModel)
	remove := s.instrument("delete", s.serveModel)
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPut:
			upload(w, r)
		case http.MethodDelete:
			remove(w, r)
		default:
			fetch(w, r)
		}
	}
}

func (s *Server) serveModel(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	if id == "" {
		http.Error(w, "missing model id", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		if r.URL.Query().Get("format") == "manifest" {
			s.serveManifestGet(w, id)
			return
		}
		s.servePack(w, id)
	case http.MethodPut:
		switch r.Header.Get("Content-Type") {
		case ContentTypeManifest:
			s.serveManifestPut(w, r, id)
		case ContentTypePack:
			s.servePackPut(w, r, id)
		default:
			http.Error(w, fmt.Sprintf("a model PUT carries %s or %s", ContentTypePack, ContentTypeManifest),
				http.StatusUnsupportedMediaType)
		}
	case http.MethodDelete:
		switch err := s.store.Delete(id); {
		case errors.Is(err, repo.ErrNotFound):
			http.Error(w, err.Error(), http.StatusNotFound)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			s.wrote(w)
			w.WriteHeader(http.StatusNoContent)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// accept is the tail every model PUT shares once its body has passed:
// publish, index, ack. publish stores the upload and returns the model
// it stored; the indexer, which decides any rollback, gets it with the
// identity of the manifest it was hydrated from. accept maps the
// outcome to a status: a publish error is 400; an index error is 500,
// and moves the generation, because the store changed either way — an
// overwrite is kept, and a failed rollback leaves the upload published
// but unindexed, which the indexer's error says; success is 201.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, id string, man *cas.Manifest, publish func() (*graph.Model, error)) {
	var err, pubErr error
	if s.indexer == nil {
		_, pubErr = publish()
	} else {
		err = s.indexer.Accept(r.Context(), id, func() (*graph.Model, cas.Identity, error) {
			m, err := publish()
			if pubErr = err; err != nil {
				return nil, nil, err
			}
			return m, man.Identity(), nil
		})
	}
	switch {
	case pubErr != nil:
		http.Error(w, pubErr.Error(), http.StatusBadRequest)
	case err != nil:
		s.wrote(w)
		http.Error(w, fmt.Sprintf("indexing %q: %v", id, err), http.StatusInternalServerError)
	default:
		s.wrote(w)
		w.WriteHeader(http.StatusCreated)
	}
}
