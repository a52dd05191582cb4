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
//	GET  /v1/models/{id}       — fetch one model (SOMX); its chunk
//	                             manifest with ?format=manifest; manifest
//	                             plus raw chunks in one body with
//	                             ?format=pack (what Client.Load asks for;
//	                             a hub whose store has no chunk surface
//	                             answers that with SOMX — see chunks.go)
//	PUT  /v1/models/{id}       — publish a model (SOMX body), or by
//	                             manifest (chunk negotiation; see chunks.go)
//	DELETE /v1/models/{id}     — remove a model
//	HEAD/GET/PUT /v1/chunks/{hash} — probe/fetch/upload one tensor chunk
//	GET  /v1/query?q=…         — run a Sommelier query (JSON; needs WithQuerier)
//	POST /v1/query             — run a query batch ({"queries":[…]} body;
//	                             needs WithQuerier or WithBatchQuerier)
//	GET  /v1/metrics           — observability snapshot (JSON; needs WithObserver)
//	GET  /v1/tracez            — recent spans, oldest first (JSON; needs WithObserver)
//	GET  /v1/healthz           — liveness + model count (JSON)
package hub

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"sommelier/internal/graph"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

// Indexer receives accepted uploads so the serving catalog stays
// current — the curated-hub mode where Sommelier indexes models as they
// arrive instead of in offline batches. The ctx is the upload request's
// context: a client that gives up mid-upload cancels the pairwise
// analysis too. An Indexer must treat an already indexed ID as success,
// not an error (re-publishing a version is legal hub behaviour).
// *sommelier.Engine satisfies it via IndexModel.
type Indexer interface {
	IndexModel(ctx context.Context, id string, m *graph.Model) error
}

// Querier answers query strings for the /v1/query endpoint. The result
// is marshaled to JSON as-is. *sommelier.Engine's QueryContext fits
// after a one-line adaptation (see cmd/sommhub); the indirection keeps
// this package free of an upward dependency on the root engine.
type Querier func(ctx context.Context, q string) (any, error)

// QueryError is the wire form of one failed query in a batch. Code
// carries machine-readable classifications a remote caller needs to
// branch on without string matching; the only code this package
// defines is CodeUnknownReference.
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

// BatchQuerier answers query batches for POST /v1/query: results and
// errors are aligned with the input by index, exactly one of
// results[i]/errs[i] meaningful per slot. *sommelier.Engine's
// QueryBatchContext fits after a small adaptation (see cmd/sommhub).
// When only a Querier is configured the server loops it instead, so
// the batch endpoint works against any query-enabled hub.
type BatchQuerier func(ctx context.Context, qs []string) ([]any, []*QueryError)

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

// WithIndexer makes the server index every accepted upload. When
// indexing fails, the upload is rejected and — unless the PUT
// overwrote a pre-existing version — rolled back, keeping "published
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
// also counts what it served (hub_fetch_pack_total, hub_fetch_somx_total,
// hub_fetch_bytes_total of model body), and the snapshot
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
}

// NewServer wraps a repository.
func NewServer(store repo.Store, opts ...ServerOption) (*Server, error) {
	if store == nil {
		return nil, fmt.Errorf("hub: nil repository")
	}
	s := &Server{store: store, mux: http.NewServeMux(), maxBody: DefaultMaxBodyBytes}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("/v1/models", s.instrument("list", s.handleList))
	s.mux.HandleFunc("/v1/models/", s.handleModel)
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

// byteCounter counts the body bytes a fetch writes through it.
type byteCounter struct {
	w io.Writer
	n int64
}

func (c *byteCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// instrument wraps a handler with the per-endpoint request counter,
// error counter, latency histogram, and a span named after the
// operation. With no observer configured every obs call is a nil-safe
// no-op, so the wrapper costs nothing.
func (s *Server) instrument(op string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.obs.Counter("hub_" + op + "_requests_total").Inc()
		ctx, span := s.obs.StartSpan(r.Context(), "hub."+op, "")
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(ctx))
		s.obs.Histogram("hub_" + op + "_ms").Observe(span.End())
		if sw.status >= 400 {
			s.obs.Counter("hub_" + op + "_errors_total").Inc()
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

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		s.serveQueryBatch(w, r)
		return
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
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
	res, err := s.querier(r.Context(), q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{"query": q, "results": res}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// batchRequest/batchResponse are the POST /v1/query wire forms. The
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
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("decoding batch body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Queries) == 0 {
		http.Error(w, "empty query batch", http.StatusBadRequest)
		return
	}
	results, qerrs := s.runBatch(r.Context(), req.Queries)
	if len(results) != len(req.Queries) || len(qerrs) != len(req.Queries) {
		http.Error(w, "batch querier returned misaligned results", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(batchResponse{Results: results, Errors: qerrs}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
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
			qerrs[i] = &QueryError{Message: err.Error()}
			continue
		}
		results[i] = res
	}
	return results, qerrs
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	op := "fetch"
	switch r.Method {
	case http.MethodPut:
		op = "upload"
	case http.MethodDelete:
		op = "delete"
	}
	s.instrument(op, s.serveModel)(w, r)
}

func (s *Server) serveModel(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	if id == "" {
		http.Error(w, "missing model id", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		switch r.URL.Query().Get("format") {
		case "manifest":
			s.serveManifestGet(w, id)
			return
		case "pack":
			// A store without a chunk surface has no pack to give; it
			// answers SOMX below and the Content-Type says so.
			if cs := s.chunkStore(); cs != nil {
				s.servePack(w, cs, id)
				return
			}
		}
		m, err := s.store.Load(id)
		if err != nil {
			if errors.Is(err, repo.ErrNotFound) {
				http.Error(w, err.Error(), http.StatusNotFound)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/x-somx")
		body := &byteCounter{w: w}
		if err := graph.Encode(body, m); err != nil {
			// Headers are gone; nothing more to do than log via the
			// error path available to handlers.
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		s.obs.Counter("hub_fetch_somx_total").Inc()
		s.obs.Counter("hub_fetch_bytes_total").Add(body.n)
	case http.MethodPut:
		if r.Header.Get("Content-Type") == ContentTypeManifest {
			s.serveManifestPut(w, r, id)
			return
		}
		m, err := graph.Decode(http.MaxBytesReader(w, r.Body, s.maxBody))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				http.Error(w, fmt.Sprintf("model exceeds %d-byte upload limit", s.maxBody),
					http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// The bare-bone interface is load-by-exact-URL; a body whose
		// identity disagrees with the path would corrupt later lookups.
		// Reject before publishing — storing first and compensating
		// with a delete could destroy a pre-existing model under the
		// body's ID.
		if gotID := repo.IDFor(m); gotID != id {
			http.Error(w, fmt.Sprintf("model identity %q does not match path id %q", gotID, id),
				http.StatusBadRequest)
			return
		}
		_, existed := s.store.Metadata(id)
		if _, err := s.store.Publish(m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.indexer != nil {
			if err := s.indexer.IndexModel(r.Context(), id, m); err != nil {
				s.indexFailed(w, id, existed, err)
				return
			}
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodDelete:
		if _, ok := s.store.Metadata(id); !ok {
			http.Error(w, fmt.Sprintf("model %q not found", id), http.StatusNotFound)
			return
		}
		if err := s.store.Delete(id); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// indexFailed answers 500 for a PUT that stored id but could not index
// it, after keeping the hub consistent with the catalog: the model this
// PUT created is dropped. A pre-existing version stays — deleting it
// would destroy data the uploader didn't send — and remains queryable
// under its old index entry. When the delete fails too the model is
// left published but unindexed, and the body says so.
func (s *Server) indexFailed(w http.ResponseWriter, id string, existed bool, err error) {
	msg := fmt.Sprintf("indexing %q: %v", id, err)
	if !existed {
		if delErr := s.store.Delete(id); delErr != nil {
			msg += fmt.Sprintf("; rollback failed, %q is published but not indexed: %v", id, delErr)
		}
	}
	http.Error(w, msg, http.StatusInternalServerError)
}
