package main

import (
	"reflect"
	"strings"
	"testing"
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
