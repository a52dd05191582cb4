package hub

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"

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

// PutChunk uploads one chunk. Chunk PUTs are idempotent by content
// addressing, so the retry machinery applies.
func (c *Client) PutChunk(hash string, data []byte) error {
	err := c.do(true,
		func() (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPut, c.chunkURL(hash), bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			return req, nil
		},
		func(resp *http.Response) error { return expectStatus(resp, http.StatusCreated) })
	if err != nil {
		return fmt.Errorf("hub: put chunk %s: %w", hash, err)
	}
	return nil
}

// putManifest PUTs a manifest; on 409 it returns the hub's missing
// chunk list with a nil error and created=false.
func (c *Client) putManifest(man *cas.Manifest) (created bool, missing []string, err error) {
	var body bytes.Buffer
	if err := cas.EncodeManifest(&body, man); err != nil {
		return false, nil, err
	}
	data := body.Bytes()
	err = c.do(false,
		func() (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPut, c.modelURL(man.ID()), bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", ContentTypeManifest)
			return req, nil
		},
		func(resp *http.Response) error {
			switch resp.StatusCode {
			case http.StatusCreated:
				created = true
				return nil
			case http.StatusConflict:
				var wire struct {
					Missing []string `json:"missing"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
					return err
				}
				missing = wire.Missing
				return nil
			}
			return &StatusError{Code: resp.StatusCode, msg: readError(resp)}
		})
	return created, missing, err
}

// PublishEncoded publishes an already-chunked model through the
// negotiation protocol: PUT the manifest, upload exactly the chunks the
// hub says it is missing, re-PUT. A hub that cannot negotiate gets the
// encoding as one pack PUT instead, so the call succeeds either way,
// and the client remembers it: later publishes to that hub go straight
// to the pack. The returned count is the bytes of model data uploaded:
// the chunks the hub was missing (zero when it held everything), or the
// pack.
func (c *Client) PublishEncoded(enc *cas.Encoded) (_ string, sent int64, err error) {
	done := c.obs.TimeOp("hub_client_publish")
	defer func() { done(err) }()
	id := enc.Manifest.ID()
	if c.packOnly.Load() {
		sent, err = c.putPack(enc)
	} else if sent, err = c.negotiate(enc); chunkUnsupported(err) {
		c.packOnly.Store(true)
		sent, err = c.putPack(enc)
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

// negotiate is PublishEncoded's chunk protocol, returning the bytes of
// the chunks it uploaded.
func (c *Client) negotiate(enc *cas.Encoded) (sent int64, err error) {
	created, missing, err := c.putManifest(enc.Manifest)
	if err != nil || created {
		return 0, err
	}
	sort.Strings(missing)
	for _, h := range missing {
		data, ok := enc.Chunks[h]
		if !ok {
			return sent, fmt.Errorf("hub needs chunk %s the encoding does not carry", h)
		}
		if err := c.PutChunk(h, data); err != nil {
			return sent, err
		}
		sent += int64(len(data))
	}
	created, missing, err = c.putManifest(enc.Manifest)
	if err == nil && !created {
		err = fmt.Errorf("hub still missing %d chunks after upload", len(missing))
	}
	return sent, err
}

// putPack PUTs the encoding whole, as a pack, and returns its size.
// Like every model PUT it is not retried.
func (c *Client) putPack(enc *cas.Encoded) (int64, error) {
	data, err := cas.EncodePack(nil, enc.Manifest, enc.Chunk)
	if err != nil {
		return 0, err
	}
	err = c.do(false,
		func() (*http.Request, error) {
			req, err := http.NewRequest(http.MethodPut, c.modelURL(enc.Manifest.ID()), bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", ContentTypePack)
			return req, nil
		},
		func(resp *http.Response) error { return expectStatus(resp, http.StatusCreated) })
	return int64(len(data)), err
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
	if _, err := dst.PublishManifest(man); err != nil {
		return fmt.Errorf("hub: mirroring %s: %w", id, err)
	}
	return nil
}
