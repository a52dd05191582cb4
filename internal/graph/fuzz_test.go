package graph

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecode: Decode never panics on arbitrary bytes, and a model it
// accepts survives Encode → Decode → Encode byte for byte. Seeds are
// valid files, a file in the retired v1 format, and the corruptions
// serialize_v2_test.go and graph_test.go pin: a tampered chunk, a
// dangling chunk ref and a shape/data mismatch. testdata/fuzz/FuzzDecode holds the inputs that
// once crashed the decoder.
func FuzzDecode(f *testing.F) {
	encoded := func(m *Model) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	v2 := encoded(smallMLP(f))
	f.Add([]byte(somxV1))
	f.Add(v2)
	f.Add(encoded(smallCNN(f)))
	f.Add(bytes.Replace(v2, []byte(`"shape":[16,8]`), []byte(`"shape":[16,9]`), 1))

	var file somxFile
	if err := json.Unmarshal(v2, &file); err != nil {
		f.Fatal(err)
	}
	remarshal := func() []byte {
		data, err := json.Marshal(&file)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	table := file.Chunks
	file.Chunks = map[string]string{} // drop the table, keep the refs
	f.Add(remarshal())
	for h := range table {
		table[h] = "AAAAAAAAAAA=" // valid base64, wrong content
		break
	}
	file.Chunks = table
	f.Add(remarshal())
	f.Add([]byte(`{"format":99}`))
	f.Add([]byte(`{}`)) // no format at all

	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		// The round trip is compared on the encoded bytes, which carry
		// every field and every tensor bit-exactly, rather than with
		// reflect.DeepEqual: JSON's absent-vs-empty distinction
		// (`"inputs":[]`) does not survive omitempty, so an accepted
		// model may differ from its round trip in nil-vs-empty only.
		canon := reencode(t, m)
		back, err := Decode(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("decoding a re-encoded model: %v", err)
		}
		if again := reencode(t, back); !bytes.Equal(canon, again) {
			t.Fatalf("round trip changed the model:\n 1st %s\n 2nd %s", canon, again)
		}
	})
}

func reencode(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatalf("re-encoding an accepted model: %v", err)
	}
	return buf.Bytes()
}
