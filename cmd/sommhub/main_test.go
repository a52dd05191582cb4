package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sommelier"
	"sommelier/internal/hub"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

func TestParseCoordinatorTopology(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    [][]string
		wantErr string // substring naming the offending shard
	}{
		{spec: "a,b;c", want: [][]string{{"a", "b"}, {"c"}}},
		{spec: " a , ,b ; c ", want: [][]string{{"a", "b"}, {"c"}}},
		{spec: "a;;b", wantErr: "shard 1 "},
		{spec: "a;", wantErr: "shard 1 "},
		{spec: ";", wantErr: "shard 0 "},
		{spec: "", wantErr: "shard 0 "},
	} {
		got, err := parseCoordinatorTopology(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseCoordinatorTopology(%q) = %v, %v; want an error naming %q",
					tc.spec, got, err, strings.TrimSpace(tc.wantErr))
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseCoordinatorTopology(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

// TestCoordinatorWritesListNoShard checks that writes through a
// coordinator front cost its shard hubs no model listing: ten
// publishes, a DELETE and a DELETE of an absent ID (404) leave every
// shard's hub_list_requests_total where it was.
func TestCoordinatorWritesListNoShard(t *testing.T) {
	var urls []string
	var shardObs []*obs.Observer
	for range 2 {
		store := repo.NewInMemory()
		o := obs.New()
		eng, err := sommelier.NewEngine(store, sommelier.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := hub.NewServer(store, hub.WithServerObserver(o), hub.WithIndexer(eng))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		urls = append(urls, ts.URL)
		shardObs = append(shardObs, o)
	}
	cl, _, err := buildCoordinator([][]string{{urls[0]}, {urls[1]}}, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	front, err := hub.NewServer(&clusterStore{cl: cl})
	if err != nil {
		t.Fatal(err)
	}
	fs := httptest.NewServer(front)
	defer fs.Close()
	c, err := hub.NewClient(fs.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	lists := func() []int64 {
		var n []int64
		for _, o := range shardObs {
			n = append(n, o.Counter("hub_list_requests_total").Value())
		}
		return n
	}
	before := lists()
	var ids []string
	for i := range 10 {
		m, err := zoo.DenseResidualNet(zoo.Config{Name: fmt.Sprintf("w%d", i), Seed: uint64(i + 1), Width: 8, Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := c.PublishModel(m)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Delete(ids[0]); err != nil {
		t.Fatalf("DELETE %s: %v", ids[0], err)
	}
	var se *hub.StatusError
	if err := c.Delete("absent@1"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("DELETE of an absent ID = %v, want a 404", err)
	}
	if after := lists(); !reflect.DeepEqual(after, before) {
		t.Errorf("shard hub_list_requests_total went from %v to %v", before, after)
	}
}
