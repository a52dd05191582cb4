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
	"sommelier/internal/graph"
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
//
// The model body itself is the pack: what a bare GET /v1/models/{id}
// answers (Client.Load, a receiver that holds nothing yet) and what a
// pack-typed PUT carries (PublishEncoded, against a hub that cannot
// negotiate). Its framing is internal/cas/pack.go: the manifest and, in
// Manifest.ChunkRefs() order, each chunk as a length-prefixed raw
// record. A hub over a chunk store copies the stored manifest and
// chunks into it with Content-Length set, neither hydrating nor
// re-encoding the model; a hub whose store has no chunk surface chunks
// the model it loads, as a repository would store it. The sender
// verifies nothing on the way out and the receiver trusts nothing on
// the way in — cas.ReadPack derives every chunk's address by hashing
// the bytes that arrived and requires it to be the manifest's next
// reference, then hydrates and validates as a repository would.
//
// So every hub sends and accepts the same body, and a Load is one
// request against any of them; only the negotiation needs a chunk
// store.

// ContentTypeManifest marks a PUT /v1/models/{id} body, and a
// ?format=manifest answer, as a chunk manifest.
const ContentTypeManifest = "application/x-somx-manifest"

// ContentTypePack marks a model body — a GET /v1/models/{id} answer or
// a PUT — as a pack.
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
// received uploads, and the client's received packs. A buffer
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
// cluster fronts, faults.FlakyStore) answers the chunk endpoints and
// manifest transfers with 501, and clients publish by pack instead; it
// still serves and accepts packs.
type ChunkStore interface {
	HasChunk(hash string) bool
	GetChunk(hash string) ([]byte, error)
	// PutChunk stores a chunk after checking that data hashes to hash.
	// It never retains data: the hub reads each upload into a recycled
	// buffer and reuses it once PutChunk returns.
	PutChunk(hash string, data []byte) error
	Manifest(id string) (*cas.Manifest, bool)
	MissingChunks(man *cas.Manifest) []string
	// PublishManifest stores the model man describes and returns it.
	PublishManifest(man *cas.Manifest) (*graph.Model, error)
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
			s.refuseUpload(w, "chunk", err)
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

// servePack answers GET /v1/models/{id} with the model's pack. A chunk
// store's is rendered from the stored manifest and chunks; any other
// store's from the model it loads, chunked as a repository would store
// it.
func (s *Server) servePack(w http.ResponseWriter, id string) {
	var (
		man *cas.Manifest
		get func(hash string) ([]byte, error)
	)
	if cs := s.chunkStore(); cs != nil {
		var ok bool
		if man, ok = cs.Manifest(id); !ok {
			http.Error(w, fmt.Sprintf("model %q not found", id), http.StatusNotFound)
			return
		}
		get = cs.GetChunk
	} else {
		m, err := s.store.Load(id)
		if err != nil {
			if errors.Is(err, repo.ErrNotFound) {
				http.Error(w, err.Error(), http.StatusNotFound)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		enc, err := cas.Encode(m, "", nil, 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		man, get = enc.Manifest, enc.Chunk
	}
	body, err := cas.EncodePack(s.packs.get(), man, get)
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

// servePackPut answers a pack-typed PUT /v1/models/{id}: the pack is
// read and verified whole, and its model must carry the path's
// identity — a body that disagrees would corrupt later lookups, and is
// refused before anything is stored, so a pre-existing model under the
// body's ID survives.
func (s *Server) servePackPut(w http.ResponseWriter, r *http.Request, id string) {
	data, err := readBody(s.uploads.get(), http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength)
	defer s.uploads.put(data) // ReadPack's model copied what it keeps
	if err != nil {
		s.refuseUpload(w, "model", err)
		return
	}
	m, man, err := cas.ReadPack(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if gotID := repo.IDFor(m); gotID != id {
		http.Error(w, fmt.Sprintf("model identity %q does not match path id %q", gotID, id),
			http.StatusBadRequest)
		return
	}
	s.accept(w, r, id, man, func() (*graph.Model, error) {
		_, err := s.store.Publish(m)
		return m, err
	})
}

// refuseUpload answers a PUT whose body could not be read: 413 past the
// upload limit, 400 otherwise.
func (s *Server) refuseUpload(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, fmt.Sprintf("%s exceeds %d-byte upload limit", what, s.maxBody),
			http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// serveManifestPut answers a manifest-typed PUT /v1/models/{id}: if the
// hub lacks referenced chunks it answers 409 Conflict with their
// addresses and the client uploads them before retrying; otherwise the
// model is published from the manifest (and indexed, with the same
// rollback discipline as a pack upload).
func (s *Server) serveManifestPut(w http.ResponseWriter, r *http.Request, id string) {
	cs := s.chunkStore()
	if cs == nil {
		http.Error(w, "chunk transfer not supported by this hub", http.StatusNotImplemented)
		return
	}
	man, err := cas.DecodeManifest(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		s.refuseUpload(w, "manifest", err)
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
	s.accept(w, r, id, man, func() (*graph.Model, error) { return cs.PublishManifest(man) })
}

var _ ChunkStore = (*repo.Repository)(nil)
