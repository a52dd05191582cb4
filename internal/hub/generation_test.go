package hub

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sommelier/internal/cas"
	"sommelier/internal/repo"
)

// genHub is a hub with a chunk-capable store and an echo querier,
// driven over raw HTTP so every response header can be read.
type genHub struct {
	t    *testing.T
	ts   *httptest.Server
	boot string // the boot every header of this hub names
}

func newGenHub(t *testing.T) *genHub {
	t.Helper()
	srv, err := NewServer(repo.NewInMemory(), WithQuerier(echoQuerier))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &genHub{t: t, ts: ts}
}

// send sends one request and returns its status and generation header
// ("" when absent).
func (h *genHub) send(method, path, contentType string, body []byte) (int, string, error) {
	req, err := http.NewRequest(method, h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		return 0, "", err
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(HeaderGeneration), nil
}

// do is send on the test goroutine.
func (h *genHub) do(method, path, contentType string, body []byte) (int, string) {
	h.t.Helper()
	status, v, err := h.send(method, path, contentType, body)
	if err != nil {
		h.t.Fatal(err)
	}
	return status, v
}

// parseGen splits a HeaderGeneration value into its boot and count.
func parseGen(v string) (string, uint64, error) {
	boot, n, ok := strings.Cut(v, ".")
	if !ok || boot == "" {
		return "", 0, fmt.Errorf("generation %q is not <boot>.<n>", v)
	}
	g, err := strconv.ParseUint(n, 10, 64)
	return boot, g, err
}

// count is the write count a header value v of this hub carries; it
// must carry one, under the hub's boot.
func (h *genHub) count(what, v string) uint64 {
	h.t.Helper()
	boot, g, err := parseGen(v)
	if err != nil {
		h.t.Fatalf("%s: %v", what, err)
	}
	if h.boot == "" {
		h.boot = boot
	}
	if boot != h.boot {
		h.t.Fatalf("%s: boot %q, want %q", what, boot, h.boot)
	}
	return g
}

// queryGen is the generation a query answer carries; every query
// answer must carry one.
func (h *genHub) queryGen() uint64 {
	h.t.Helper()
	_, v := h.do(http.MethodGet, "/v1/query?q=x", "", nil)
	return h.count("query answer", v)
}

// TestGenerationMovesOnWritesOnly: query answers (GET and POST, answered
// or refused) and write acks carry the generation under the hub's boot;
// it moves by one on every accepted model PUT, manifest publish and
// DELETE, and not on a model or manifest GET, a chunk HEAD/GET/PUT, or a
// refused write. Another hub names another boot.
func TestGenerationMovesOnWritesOnly(t *testing.T) {
	h := newGenHub(t)
	g := h.queryGen()
	if g != 0 {
		t.Fatalf("a fresh hub answers generation %d, want 0", g)
	}
	for _, q := range []string{"boom", "ghost"} {
		if _, v := h.do(http.MethodGet, "/v1/query?q="+q, "", nil); h.count("refused query "+q, v) != 0 {
			t.Fatalf("refused query %q carries generation %q, want 0", q, v)
		}
	}
	if _, v := h.do(http.MethodPost, "/v1/query", "application/json", []byte(`{"queries":["a","b"]}`)); h.count("POST /v1/query", v) != 0 {
		t.Fatalf("POST /v1/query carries generation %q, want 0", v)
	}

	write := func(what string, status int, v string, wantStatus int) {
		t.Helper()
		if status != wantStatus {
			t.Fatalf("%s: status %d, want %d", what, status, wantStatus)
		}
		g++
		if h.count(what+" ack", v) != g {
			t.Fatalf("%s: ack carries generation %q, want %d", what, v, g)
		}
		if got := h.queryGen(); got != g {
			t.Fatalf("after %s the query answer carries %d, want %d", what, got, g)
		}
	}
	unchanged := func(what string, v string) {
		t.Helper()
		if v != "" {
			t.Fatalf("%s carries generation %q; only query answers and write acks do", what, v)
		}
		if got := h.queryGen(); got != g {
			t.Fatalf("%s moved the generation %d → %d", what, g, got)
		}
	}

	m := testModel(t, "gen", 1)
	st, v := h.do(http.MethodPut, "/v1/models/gen@1", ContentTypePack, packBytes(t, m))
	write("model PUT", st, v, http.StatusCreated)
	st, v = h.do(http.MethodPut, "/v1/models/other@1", ContentTypePack, packBytes(t, m))
	if st != http.StatusBadRequest {
		t.Fatalf("identity-mismatch PUT: status %d", st)
	}
	unchanged("a refused PUT", v)
	_, v = h.do(http.MethodGet, "/v1/models/gen@1", "", nil)
	unchanged("a model GET", v)
	_, v = h.do(http.MethodGet, "/v1/models/gen@1?format=manifest", "", nil)
	unchanged("a manifest GET", v)
	_, v = h.do(http.MethodGet, "/v1/models", "", nil)
	unchanged("a list", v)

	// Publish a second model by manifest, chunk by chunk.
	enc, err := cas.Encode(testModel(t, "bychunk", 2), "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var man bytes.Buffer
	if err := cas.EncodeManifest(&man, enc.Manifest); err != nil {
		t.Fatal(err)
	}
	st, v = h.do(http.MethodPut, "/v1/models/bychunk@1", ContentTypeManifest, man.Bytes())
	if st != http.StatusConflict {
		t.Fatalf("manifest PUT before its chunks: status %d, want 409", st)
	}
	unchanged("a 409 manifest PUT", v)
	for hash, data := range enc.Chunks {
		st, v = h.do(http.MethodPut, "/v1/chunks/"+hash, "", data)
		if st != http.StatusCreated {
			t.Fatalf("chunk PUT: status %d", st)
		}
		unchanged("a chunk PUT", v)
		_, v = h.do(http.MethodHead, "/v1/chunks/"+hash, "", nil)
		unchanged("a chunk HEAD", v)
		_, v = h.do(http.MethodGet, "/v1/chunks/"+hash, "", nil)
		unchanged("a chunk GET", v)
	}
	st, v = h.do(http.MethodPut, "/v1/models/bychunk@1", ContentTypeManifest, man.Bytes())
	write("manifest publish", st, v, http.StatusCreated)

	st, v = h.do(http.MethodDelete, "/v1/models/gen@1", "", nil)
	write("DELETE", st, v, http.StatusNoContent)
	st, v = h.do(http.MethodDelete, "/v1/models/gen@1", "", nil)
	if st != http.StatusNotFound {
		t.Fatalf("second DELETE: status %d", st)
	}
	unchanged("a 404 DELETE", v)

	other := newGenHub(t)
	other.queryGen()
	if other.boot == h.boot {
		t.Fatalf("two hubs name the same boot %q", h.boot)
	}
}

// TestGenerationAfterAckIsSeen: once a write's ack carrying generation
// g has arrived, every query sent later answers with a generation ≥ g,
// however writers and readers interleave; each reader's values never
// go down.
func TestGenerationAfterAckIsSeen(t *testing.T) {
	h := newGenHub(t)
	var acked atomic.Uint64 // highest generation an ack has carried
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 2; w++ {
		body := packBytes(t, testModel(t, fmt.Sprintf("w%d", w), uint64(w)))
		path := fmt.Sprintf("/v1/models/w%d@1", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				method, ct := http.MethodPut, ContentTypePack
				if i%2 == 1 {
					method, ct = http.MethodDelete, ""
				}
				_, v, err := h.send(method, path, ct, body)
				_, g, perr := parseGen(v)
				if err != nil || perr != nil {
					errs <- fmt.Errorf("%s ack carries %q (%v)", method, v, err)
					return
				}
				for {
					cur := acked.Load()
					if cur >= g || acked.CompareAndSwap(cur, g) {
						break
					}
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < 150; i++ {
				floor := acked.Load()
				_, v, err := h.send(http.MethodGet, "/v1/query?q=x", "", nil)
				_, g, perr := parseGen(v)
				if err != nil || perr != nil || g < floor || g < last {
					errs <- fmt.Errorf("query answered generation %q after an ack of %d (previous answer %d, %v)", v, floor, last, err)
					return
				}
				last = g
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClientGeneration: the client counts the changes the hub's
// generation shows — a higher count, or a new boot — and a missing or
// malformed header (an older hub, a proxy that strips or mangles it)
// shows nothing.
func TestClientGeneration(t *testing.T) {
	var header atomic.Value
	header.Store("")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := header.Load().(string); v != "" {
			w.Header().Set(HeaderGeneration, v)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("[]"))
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		header string
		want   uint64
		ok     bool
	}{
		{"", 0, false},
		{"abc", 0, false},
		{"7", 0, false}, // no boot
		{".7", 0, false},
		{"b.-1", 0, false},
		{"b.1.5", 0, false},
		{"b.7", 1, true},
		{"b.3", 1, true}, // a lower count from the same boot is an older answer
		{"b.7", 1, true},
		{"", 1, true},
		{"b.junk", 1, true},
		{"b.9", 2, true},
		{"c.0", 3, true}, // a restarted hub counts from 0 under a new boot
		{"c.1", 4, true},
		{"b.9", 5, true}, // a late answer from the old boot is a change too
		{"c.1", 6, true},
	}
	for _, s := range steps {
		header.Store(s.header)
		if _, err := client.List(); err != nil {
			t.Fatal(err)
		}
		if g, ok := client.Generation(); g != s.want || ok != s.ok {
			t.Fatalf("after header %q: Generation() = %d, %v; want %d, %v", s.header, g, ok, s.want, s.ok)
		}
	}
	// A real hub's write ack reaches the client too.
	_, publisher, _ := newHub(t)
	if _, ok := publisher.Generation(); ok {
		t.Fatal("a client that has sent nothing reports a generation")
	}
	if _, _, err := publisher.PublishModel(testModel(t, "acked", 1)); err != nil {
		t.Fatal(err)
	}
	if g, ok := publisher.Generation(); g != 1 || !ok {
		t.Fatalf("after one publish Generation() = %d, %v; want 1, true", g, ok)
	}
}

// TestClientGenerationAfterLostWriteAck: a PUT or DELETE attempt whose
// answer never arrived, or was a 5xx without the header (a gateway's),
// may still commit on the hub, so the client reports no generation
// until the hub shows a later change; a failed GET, and a write the hub
// refused with a 4xx, leave it alone.
func TestClientGenerationAfterLostWriteAck(t *testing.T) {
	var header atomic.Value
	header.Store("b.1")
	var drop atomic.Bool
	var status atomic.Int64 // a DELETE's answer, without the header
	status.Store(http.StatusNoContent)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if drop.Load() {
			panic(http.ErrAbortHandler) // the connection drops, no answer
		}
		switch r.Method {
		case http.MethodDelete:
			if code := int(status.Load()); code != http.StatusNoContent {
				w.WriteHeader(code)
				return
			}
			w.Header().Set(HeaderGeneration, header.Load().(string))
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set(HeaderGeneration, header.Load().(string))
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("[]"))
		}
	}))
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client(), WithRetries(0), WithBreaker(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := func(what string, g uint64, ok bool) {
		t.Helper()
		if got, gotOK := client.Generation(); got != g || gotOK != ok {
			t.Fatalf("%s: Generation() = %d, %v; want %d, %v", what, got, gotOK, g, ok)
		}
	}
	if _, err := client.List(); err != nil {
		t.Fatal(err)
	}
	want("after a list", 1, true)
	drop.Store(true)
	if _, err := client.List(); err == nil {
		t.Fatal("a dropped list succeeded")
	}
	want("after a lost GET", 1, true)
	if err := client.Delete("m@1"); err == nil {
		t.Fatal("a dropped DELETE succeeded")
	}
	want("after a lost DELETE", 0, false)
	drop.Store(false)
	if _, err := client.List(); err != nil {
		t.Fatal(err)
	}
	want("after an answer showing no change", 0, false)
	header.Store("b.2")
	if _, err := client.List(); err != nil {
		t.Fatal(err)
	}
	want("after a change", 2, true)

	status.Store(http.StatusNotFound)
	if err := client.Delete("m@1"); err == nil {
		t.Fatal("a refused DELETE succeeded")
	}
	want("after a refused DELETE", 2, true)
	status.Store(http.StatusBadGateway)
	if err := client.Delete("m@1"); err == nil {
		t.Fatal("a DELETE answered 502 succeeded")
	}
	want("after a gateway's 502", 0, false)
	header.Store("b.3")
	if _, err := client.List(); err != nil {
		t.Fatal(err)
	}
	want("after the next change", 3, true)
}
