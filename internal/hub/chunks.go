package hub

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"sommelier/internal/cas"
	"sommelier/internal/repo"
)

// The chunk-negotiation protocol (git/OCI style): a publisher PUTs a
// model's manifest; the server answers 409 with the chunk addresses it
// lacks; the publisher uploads exactly those and re-PUTs the manifest.
// A mirror runs the same negotiation in reverse with HEAD + GET. Either
// way only chunks the receiver is missing cross the wire, so a
// fine-tuned series costs its unique tensors, not whole models.
//
//	HEAD /v1/chunks/{hash}            — does the hub hold this chunk?
//	GET  /v1/chunks/{hash}            — fetch one chunk (binary)
//	PUT  /v1/chunks/{hash}            — upload one chunk (binary)
//	GET  /v1/models/{id}?format=manifest — fetch a model's chunk manifest
//	PUT  /v1/models/{id} (manifest)   — publish by manifest; 409 lists missing chunks

// ContentTypeManifest marks a PUT /v1/models/{id} body as a chunk
// manifest rather than a whole SOMX model.
const ContentTypeManifest = "application/x-somx-manifest"

// ChunkStore is the optional chunk-level surface a Store may implement
// — *repo.Repository does. A server whose store lacks it (sommhub's
// coordinator-mode cluster store, faults.FlakyStore) answers chunk
// endpoints with 501, and clients fall back to whole-model transfer.
type ChunkStore interface {
	HasChunk(hash string) bool
	GetChunk(hash string) ([]byte, error)
	PutChunk(hash string, data []byte) error
	Manifest(id string) (*cas.Manifest, bool)
	MissingChunks(man *cas.Manifest) []string
	PublishManifest(man *cas.Manifest) (string, error)
}

// chunkStore returns the store's chunk surface, or nil when the store
// cannot negotiate chunks.
func (s *Server) chunkStore() ChunkStore {
	cs, _ := s.store.(ChunkStore)
	return cs
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	cs := s.chunkStore()
	if cs == nil {
		http.Error(w, "chunk transfer not supported by this hub", http.StatusNotImplemented)
		return
	}
	hash := strings.TrimPrefix(r.URL.Path, "/v1/chunks/")
	if hash == "" {
		http.Error(w, "missing chunk address", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodHead:
		if !cs.HasChunk(hash) {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	case http.MethodGet:
		data, err := cs.GetChunk(hash)
		if err != nil {
			if errors.Is(err, cas.ErrMissingChunk) {
				http.Error(w, err.Error(), http.StatusNotFound)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	case http.MethodPut:
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				http.Error(w, fmt.Sprintf("chunk exceeds %d-byte upload limit", s.maxBody),
					http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// PutChunk verifies content against the address, so a corrupted
		// upload is rejected here, not discovered at hydration.
		if err := cs.PutChunk(hash, data); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveManifestGet answers GET /v1/models/{id}?format=manifest.
func (s *Server) serveManifestGet(w http.ResponseWriter, id string) {
	cs := s.chunkStore()
	if cs == nil {
		http.Error(w, "chunk transfer not supported by this hub", http.StatusNotImplemented)
		return
	}
	man, ok := cs.Manifest(id)
	if !ok {
		http.Error(w, fmt.Sprintf("model %q not found", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", ContentTypeManifest)
	if err := cas.EncodeManifest(w, man); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveManifestPut answers a manifest-typed PUT /v1/models/{id}: if the
// hub lacks referenced chunks it answers 409 Conflict with their
// addresses and the client uploads them before retrying; otherwise the
// model is published from the manifest (and indexed, with the same
// rollback discipline as a whole-model upload).
func (s *Server) serveManifestPut(w http.ResponseWriter, r *http.Request, id string) {
	cs := s.chunkStore()
	if cs == nil {
		http.Error(w, "chunk transfer not supported by this hub", http.StatusNotImplemented)
		return
	}
	man, err := cas.DecodeManifest(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("manifest exceeds %d-byte upload limit", s.maxBody),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if man.ID() != id {
		http.Error(w, fmt.Sprintf("manifest identity %q does not match path id %q", man.ID(), id),
			http.StatusBadRequest)
		return
	}
	if missing := cs.MissingChunks(man); len(missing) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string][]string{"missing": missing})
		return
	}
	_, existed := s.store.Metadata(id)
	if _, err := cs.PublishManifest(man); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.indexer != nil {
		m, err := s.store.Load(id)
		if err == nil {
			err = s.indexer.IndexModel(r.Context(), id, m)
		}
		if err != nil {
			if !existed {
				_ = s.store.Delete(id)
			}
			http.Error(w, fmt.Sprintf("indexing %q: %v", id, err), http.StatusInternalServerError)
			return
		}
	}
	w.WriteHeader(http.StatusCreated)
}

var _ ChunkStore = (*repo.Repository)(nil)
