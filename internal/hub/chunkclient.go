package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"

	"sommelier/internal/cas"
	"sommelier/internal/chunk"
	"sommelier/internal/graph"
	"sommelier/internal/repo"
)

// chunkUnsupported classifies hub answers that mean "this hub cannot
// speak the chunk protocol" (as opposed to transient failures or a
// missing model).
func chunkUnsupported(err error) bool {
	var se *StatusError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case http.StatusNotImplemented, http.StatusMethodNotAllowed, http.StatusUnsupportedMediaType:
		return true
	}
	return false
}

func (c *Client) chunkURL(hash string) string {
	return c.base + "/v1/chunks/" + url.PathEscape(hash)
}

// LoadManifest fetches a model's chunk manifest.
func (c *Client) LoadManifest(id string) (_ *cas.Manifest, err error) {
	done := c.obs.TimeOp("hub_client_manifest")
	defer func() { done(err) }()
	var man *cas.Manifest
	err = c.do(true, buildGet(c.modelURL(id)+"?format=manifest"), func(resp *http.Response) error {
		if err := expectStatus(resp, http.StatusOK); err != nil {
			return err
		}
		var derr error
		man, derr = cas.DecodeManifest(resp.Body)
		return derr
	})
	if err != nil {
		return nil, fmt.Errorf("hub: manifest %s: %w", id, err)
	}
	return man, nil
}

// GetChunk fetches one chunk, verifying the bytes against the address
// so a corrupted transfer is caught at the edge.
func (c *Client) GetChunk(hash string) (_ []byte, err error) {
	var data []byte
	err = c.do(true, buildGet(c.chunkURL(hash)), func(resp *http.Response) error {
		if err := expectStatus(resp, http.StatusOK); err != nil {
			return err
		}
		b, err := readBody(nil, resp.Body, resp.ContentLength)
		if err != nil {
			return err
		}
		if got := chunk.Hash(b); got != hash {
			return fmt.Errorf("chunk %s arrived hashing to %s", hash, got)
		}
		data = b
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("hub: get chunk %s: %w", hash, err)
	}
	return data, nil
}

// packBudget caps the record bytes of one publish pack (a record is a
// chunk and its 4-byte length; see internal/cas/pack.go), so a model
// with more new bytes than a hub's body limit still publishes, in
// several packs. A chunk larger than the budget travels alone.
const packBudget = 4 << 20

// PublishEncoded publishes an already-chunked model in pack PUTs. The
// first carries the manifest alone: a hub that holds every chunk it
// references commits the model (201), and a chunk store that lacks some
// names them (409); those go up as the records of further packs, each
// within packBudget, and the last one commits. A hub without a chunk
// store refuses a partial pack (501) and gets the complete pack
// instead; the client remembers it, and later publishes to that hub
// send the complete pack at once. The returned count is the bytes of
// model data uploaded: the chunks the hub was missing (zero when it
// held everything), or the complete pack.
func (c *Client) PublishEncoded(enc *cas.Encoded) (_ string, sent int64, err error) {
	done := c.obs.TimeOp("hub_client_publish")
	defer func() { done(err) }()
	id := enc.Manifest.ID()
	whole := func() (int64, error) {
		_, size, err := c.putPack(enc, enc.Manifest.ChunkRefs())
		return int64(size), err
	}
	if c.packOnly.Load() {
		sent, err = whole()
	} else if sent, err = c.negotiate(enc); chunkUnsupported(err) {
		c.packOnly.Store(true)
		sent, err = whole()
	}
	if err != nil {
		return "", sent, fmt.Errorf("hub: publish %s: %w", id, err)
	}
	c.mu.Lock()
	if enc.Model != nil {
		c.cache.Add(id, enc.Model)
	}
	c.mu.Unlock()
	return id, sent, nil
}

// negotiate is PublishEncoded's exchange with a chunk store: the
// manifest alone, then the chunks the hub names missing, in its order,
// as the records of packs within packBudget, until it commits. Each
// answer must name fewer missing chunks than the one before, less those
// just sent. It returns the bytes of the chunks it uploaded.
func (c *Client) negotiate(enc *cas.Encoded) (sent int64, err error) {
	missing, _, err := c.putPack(enc, nil)
	for err == nil && missing != nil {
		n, size := 0, 0
		for ; n < len(missing); n++ {
			data, ok := enc.Chunks[missing[n]]
			if !ok {
				return sent, fmt.Errorf("hub needs chunk %s the encoding does not carry", missing[n])
			}
			if n > 0 && 4*(n+1)+size+len(data) > packBudget {
				break
			}
			size += len(data)
		}
		left := len(missing) - n
		if missing, _, err = c.putPack(enc, missing[:n]); err == nil {
			sent += int64(size)
			if len(missing) > left {
				err = fmt.Errorf("hub still missing %d chunks after upload", len(missing))
			}
		}
	}
	return sent, err
}

// putPack PUTs the pack of enc carrying the chunks refs names, and
// returns what the hub still lacks — nil once it has committed the
// model — and the pack's size. Like every model PUT it is not retried.
func (c *Client) putPack(enc *cas.Encoded, refs []string) (missing []string, size int, err error) {
	body, err := cas.EncodePack(c.packs.get(), enc.Manifest, refs, enc.Chunk)
	if err != nil {
		return nil, 0, err
	}
	err = c.do(false,
		func() (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPut, c.modelURL(enc.Manifest.ID()), lend(body, &c.packs))
			if err != nil {
				return nil, err
			}
			req.ContentLength = int64(len(body))
			req.Header.Set("Content-Type", ContentTypePack)
			return req, nil
		},
		func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusCreated:
				return nil
			case http.StatusConflict:
				var wire struct {
					Missing []string `json:"missing"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
					return err
				}
				if len(wire.Missing) == 0 {
					return fmt.Errorf("hub answered %d naming no missing chunk", resp.StatusCode)
				}
				missing = wire.Missing
				return nil
			}
			return &StatusError{Code: resp.StatusCode, msg: readError(resp)}
		})
	return missing, len(body), err
}

// lentBody is a request body over a buffer of pool's. The transport may
// go on reading a request body after the response has arrived, and
// closes it when it is done, or gives up; so the buffer goes back to the
// pool only at a close after the last byte was read, and is otherwise
// left to the garbage collector.
type lentBody struct {
	buf    []byte
	r      bytes.Reader
	pool   *bufPool
	read   atomic.Bool // Read has reported io.EOF
	closed atomic.Bool
}

func lend(buf []byte, pool *bufPool) *lentBody {
	b := &lentBody{buf: buf, pool: pool}
	b.r.Reset(buf)
	return b
}

func (b *lentBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		b.read.Store(true)
	}
	return n, err
}

func (b *lentBody) Close() error {
	if b.read.Load() && !b.closed.Swap(true) {
		b.pool.put(b.buf)
	}
	return nil
}

// PublishModel chunk-encodes a model and publishes it through
// PublishEncoded. It is the graph.Model-first form for callers without
// a repository to encode against.
func (c *Client) PublishModel(m *graph.Model) (string, int64, error) {
	enc, err := cas.Encode(m, "", nil, 0)
	if err != nil {
		return "", 0, fmt.Errorf("hub: refusing invalid model: %w", err)
	}
	return c.PublishEncoded(enc)
}

// Mirror copies every hub model into a local repository — the 3-line
// migration path of §6: point Sommelier at a mirror of any hub. When
// the hub speaks the chunk protocol, each model transfers as manifest
// plus only the chunks the destination is missing, so re-mirroring a
// mostly-unchanged hub moves metadata, not tensors; a hub without a
// chunk surface falls back to loading each model's pack. Mirror tolerates
// partial failure: a model that cannot be fetched or stored is skipped
// and reported, and the rest of the hub still mirrors. The returned
// count is the number of models copied; the error is nil on full
// success, a *MirrorError on partial success, or a plain error if the
// hub could not be listed.
func (c *Client) Mirror(dst *repo.Repository) (int, error) {
	list, err := c.List()
	if err != nil {
		return 0, err
	}
	n := 0
	chunked := true
	var failed map[string]error
	for _, md := range list {
		var err error
		if chunked {
			err = c.mirrorChunked(dst, md.ID)
			if chunkUnsupported(err) {
				chunked = false // stop asking; this hub cannot negotiate
			}
		}
		if !chunked || err != nil {
			// Whole-model path: both the fallback for hubs without a
			// chunk surface and the recovery path when one chunked
			// transfer fails.
			var m *graph.Model
			m, err = c.Load(md.ID)
			if err == nil {
				_, err = dst.Publish(m)
				if err != nil {
					err = fmt.Errorf("hub: mirroring %s: %w", md.ID, err)
				}
			}
		}
		if err != nil {
			if failed == nil {
				failed = make(map[string]error)
			}
			failed[md.ID] = err
			continue
		}
		n++
	}
	if failed != nil {
		return n, &MirrorError{Errs: failed}
	}
	return n, nil
}

// mirrorChunked copies one model by manifest + missing chunks.
func (c *Client) mirrorChunked(dst *repo.Repository, id string) error {
	man, err := c.LoadManifest(id)
	if err != nil {
		return err
	}
	for _, h := range dst.MissingChunks(man) {
		data, err := c.GetChunk(h)
		if err != nil {
			return err
		}
		if err := dst.PutChunk(h, data); err != nil {
			return fmt.Errorf("hub: mirroring %s: %w", id, err)
		}
	}
	if _, err := dst.PublishManifest(man, nil); err != nil {
		return fmt.Errorf("hub: mirroring %s: %w", id, err)
	}
	return nil
}
