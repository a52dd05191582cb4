package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

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
//	GET  /v1/models/{id}?format=pack  — fetch manifest + every chunk, one body
//	PUT  /v1/models/{id} (manifest)   — publish by manifest; 409 lists missing chunks
//
// The pack is the pull of a receiver that holds nothing — Client.Load.
// Its body (framing in internal/cas/pack.go) is the stored manifest
// and, in Manifest.ChunkRefs() order, each chunk as a length-prefixed
// raw record, copied out of the chunk store with Content-Length set:
// the hub neither hydrates the model nor re-encodes it. The hub
// verifies nothing on the way out and the client trusts nothing on the
// way in — cas.ReadPack derives every chunk's address by hashing the
// bytes that arrived and requires it to be the manifest's next
// reference, then hydrates and validates as a repository would.
//
// ?format=pack is a preference, not a demand: a hub whose store has no
// chunk surface, like a hub that predates the parameter, answers the
// same 200 with plain SOMX, and the client decodes whichever
// Content-Type came back. A 501 here would make every load against
// such a hub two requests, or make the client remember which hubs
// cannot pack; answering with what the hub has keeps a Load one
// request against every hub and keeps the client stateless.

// ContentTypeManifest marks a PUT /v1/models/{id} body as a chunk
// manifest rather than a whole SOMX model.
const ContentTypeManifest = "application/x-somx-manifest"

// ContentTypePack marks a GET /v1/models/{id}?format=pack response as
// a pack rather than a whole SOMX model.
const ContentTypePack = "application/x-somx-pack"

// presizeLimit caps the buffer readBody allocates on the strength of a
// declared Content-Length alone. Chunks are 32 KiB by default and the
// packs of the models this repository serves a few hundred KiB; a body
// declared longer is read by io.ReadAll, which grows only as bytes
// actually arrive.
const presizeLimit = 1 << 20

// readBody reads a whole HTTP body given its Content-Length (-1 when
// unknown). io.ReadAll's doubling buffer allocates about three times
// what it returns, so a declared length gets one exact buffer instead:
// dst's, when its capacity holds the body, else a new one if the length
// is plausible. net/http ends a body at its declared length, so nothing
// can follow the buffer; a body that ends early is io.ErrUnexpectedEOF.
func readBody(dst []byte, body io.Reader, declared int64) ([]byte, error) {
	var buf []byte
	switch {
	case declared > 0 && declared <= int64(cap(dst)):
		buf = dst[:declared]
	case declared > 0 && declared <= presizeLimit:
		buf = make([]byte, declared)
	default:
		return io.ReadAll(body)
	}
	if _, err := io.ReadFull(body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// bufPool recycles whole-body buffers: the server's rendered packs and
// received chunk uploads, and the client's received packs. A buffer
// goes back once nothing holds a slice of it.
type bufPool struct{ pool sync.Pool }

func (p *bufPool) get() []byte {
	if b, ok := p.pool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return nil
}

func (p *bufPool) put(b []byte) {
	if cap(b) > 0 {
		p.pool.Put(&b)
	}
}

// ChunkStore is the optional chunk-level surface a Store may implement
// — *repo.Repository does. A server whose store lacks it (sommhub's
// coordinator-mode cluster store, faults.FlakyStore) answers chunk
// endpoints with 501, and clients fall back to whole-model transfer;
// asked for a pack, it answers SOMX.
type ChunkStore interface {
	HasChunk(hash string) bool
	GetChunk(hash string) ([]byte, error)
	// PutChunk stores a chunk after checking that data hashes to hash.
	// It never retains data: the hub reads each upload into a recycled
	// buffer and reuses it once PutChunk returns.
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
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	case http.MethodPut:
		data, err := readBody(s.uploads.get(), http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength)
		defer s.uploads.put(data)
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
	var body bytes.Buffer
	if err := cas.EncodeManifest(&body, man); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentTypeManifest)
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	w.Write(body.Bytes())
}

// servePack answers GET /v1/models/{id}?format=pack on a hub with a
// chunk surface.
func (s *Server) servePack(w http.ResponseWriter, cs ChunkStore, id string) {
	man, ok := cs.Manifest(id)
	if !ok {
		http.Error(w, fmt.Sprintf("model %q not found", id), http.StatusNotFound)
		return
	}
	body, err := cas.EncodePack(s.packs.get(), man, cs.GetChunk)
	defer s.packs.put(body)
	if err != nil {
		// The manifest is stored and a chunk it references is not
		// readable: a damaged store, or a delete that won the race.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentTypePack)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
	s.obs.Counter("hub_fetch_pack_total").Inc()
	s.obs.Counter("hub_fetch_bytes_total").Add(int64(len(body)))
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
			s.indexFailed(w, id, existed, err)
			return
		}
	}
	s.wrote(w)
	w.WriteHeader(http.StatusCreated)
}

var _ ChunkStore = (*repo.Repository)(nil)
