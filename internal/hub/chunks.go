package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"sommelier/internal/cas"
	"sommelier/internal/graph"
	"sommelier/internal/repo"
)

// The model body on the wire, in both directions, is the pack
// (internal/cas/pack.go): a model's manifest and, in
// Manifest.ChunkRefs() order, any subset of the chunks it references as
// length-prefixed raw records. A bare GET /v1/models/{id} answers the
// complete pack. A publish PUTs the manifest alone first; a hub over a
// chunk store that lacks referenced chunks answers 409 with their
// addresses, and the publisher PUTs them as the records of further
// packs until the hub holds every reference and commits (201). So only
// chunks the receiver is missing cross the wire, and a fine-tuned
// series costs its unique tensors, not whole models.
//
//	GET /v1/models/{id}                  — the model's complete pack
//	GET /v1/models/{id}?format=manifest  — its chunk manifest
//	GET /v1/chunks/{hash}                — one chunk (binary)
//	PUT /v1/models/{id} (pack)           — publish; 409 lists missing chunks
//
// Mirror pulls with the two manifest and chunk GETs, asking its own
// repository which chunks it lacks. A hub over a chunk store copies the
// stored manifest and chunks into a pack with Content-Length set,
// neither hydrating nor re-encoding the model; a hub whose store has no
// chunk surface chunks the model it loads, as a repository would store
// it, answers the manifest and chunk GETs 501, and takes only complete
// packs (any other is 501 too). The sender verifies nothing on the way
// out and the receiver trusts nothing on the way in: cas.DecodePack
// derives every record's address by hashing the bytes that arrived and
// requires it to be a later reference of the manifest, and that hash is
// the only one an uploaded byte gets at the hub.

// ContentTypeManifest marks a ?format=manifest answer as a chunk
// manifest.
const ContentTypeManifest = "application/x-somx-manifest"

// ContentTypePack marks a model body — a GET /v1/models/{id} answer or
// a PUT — as a pack.
const ContentTypePack = "application/x-somx-pack"

// presizeLimit caps the buffer readBody allocates on the strength of a
// declared Content-Length alone. The packs of the models this
// repository serves and publishes are a few hundred KiB; a body
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
// received uploads, and the client's received and sent packs. A buffer
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
// cluster fronts, faults.FlakyStore) answers the chunk and manifest GETs
// with 501 and takes only complete packs; it still serves packs.
type ChunkStore interface {
	GetChunk(hash string) ([]byte, error)
	// PutChunk stores a chunk whose address the caller got by hashing
	// data. It never retains data: the hub's records alias a recycled
	// upload buffer, reused once the PUT is answered.
	PutChunk(hash string, data []byte) error
	Manifest(id string) (*cas.Manifest, bool)
	MissingChunks(man *cas.Manifest) []string
	// PublishManifest stores the model man describes, from the chunks
	// carried (named by hashing them, and never retained) and those it
	// holds, and returns it.
	PublishManifest(man *cas.Manifest, carried map[string][]byte) (*graph.Model, error)
}

// chunkStore returns the store's chunk surface, or nil when the store
// cannot negotiate chunks.
func (s *Server) chunkStore() ChunkStore {
	cs, _ := s.store.(ChunkStore)
	return cs
}

// handleChunk answers GET /v1/chunks/{hash}. Chunks go up only as
// pack records, so every other method is 405.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
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
	body, err := cas.EncodePack(s.packs.get(), man, man.ChunkRefs(), get)
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

// servePut answers PUT /v1/models/{id}, whose body is a pack. Its
// manifest must carry the path's identity — a body that disagrees would
// corrupt later lookups, and is refused before anything is stored, so a
// pre-existing model under the body's ID survives.
//
// A hub over a chunk store answers 409 with the references neither
// stored nor carried, storing the records it was sent, until there are
// none; then it commits the manifest as it was sent, with the records
// as its carried chunks, resolving no base and re-encoding nothing. A
// hub without a chunk store takes complete packs only, and answers any
// other 501.
func (s *Server) servePut(w http.ResponseWriter, r *http.Request, id string) {
	if ct := r.Header.Get("Content-Type"); ct != ContentTypePack {
		http.Error(w, fmt.Sprintf("a model PUT carries %s, not %q", ContentTypePack, ct), http.StatusUnsupportedMediaType)
		return
	}
	data, err := readBody(s.uploads.get(), http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength)
	defer s.uploads.put(data) // the store and the model copied what they keep
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		http.Error(w, fmt.Sprintf("model exceeds %d-byte upload limit", s.maxBody), http.StatusRequestEntityTooLarge)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cs := s.chunkStore()
	var (
		man    *cas.Manifest
		chunks map[string][]byte
		m      *graph.Model
	)
	if cs != nil {
		man, chunks, err = cas.DecodePack(data)
	} else if m, man, err = cas.ReadPack(data); errors.Is(err, cas.ErrMissingChunk) {
		http.Error(w, "this hub has no chunk store and takes only complete packs: "+err.Error(), http.StatusNotImplemented)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if man.ID() != id {
		http.Error(w, fmt.Sprintf("model identity %q does not match path id %q", man.ID(), id), http.StatusBadRequest)
		return
	}
	if cs == nil {
		s.accept(w, r, id, man, func() (*graph.Model, error) {
			_, err := s.store.Publish(m)
			return m, err
		})
		return
	}
	// A chunk the pack carries counts as held, even if a racing delete
	// collects the stored copy before the commit: PublishManifest
	// resupplies it.
	missing := slices.DeleteFunc(cs.MissingChunks(man), func(h string) bool {
		_, ok := chunks[h]
		return ok
	})
	if len(missing) > 0 {
		for h, record := range chunks {
			if err := cs.PutChunk(h, record); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string][]string{"missing": missing})
		return
	}
	s.accept(w, r, id, man, func() (*graph.Model, error) { return cs.PublishManifest(man, chunks) })
}

var _ ChunkStore = (*repo.Repository)(nil)
