package query

import (
	"reflect"
	"testing"
)

// FuzzParse: Parse never panics on arbitrary input, and a query it
// accepts renders (String) to text that parses back to the same AST.
// Seeds are the statements parser_test.go uses plus the shapes the root
// package's oracle test generates (ranges, duplicate bounds, every unit,
// EXEC after PICK, TASK references).
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`SELECT CORR "resnet50@1" WITHIN 95% ON memory <= 80% AND flops <= 60% PICK most_similar`,
		`SELECT CORR m ON memory < 200 MB AND flops < 50 GFLOPS AND latency < 30 ms`,
		`SELECT TASK vision WITHIN 90% PICK smallest LIMIT 5`,
		`SELECT CORR m EXEC batch=8 device=gpu mode=throughput`,
		`SELECT CORR base`,
		`SELECT model CORR base`,
		`select corr base within 80% on memory <= 50% pick fastest`,
		``,
		`SELECT`,
		`SELECT ON memory < 1`,
		`SELECT CORR`,
		`SELECT CORR m WITHIN banana`,
		`SELECT CORR m WITHIN 150%`,
		`SELECT CORR m ON memory memory`,
		`SELECT CORR m ON weight < 5`,
		`SELECT CORR m PICK banana`,
		`SELECT CORR m LIMIT x`,
		`SELECT CORR m ON latency < 5 GB`,
		`SELECT CORR "unterminated`,
		`SELECT CORR m $$$`,
		`SELECT CORR m ON memory < 50 MB AND memory < 100 MB`,
		`SELECT CORR m ON memory > 10 MB AND memory < 100 MB`,
		`SELECT CORR m ON memory < 5 GB`,
		`SELECT CORR "resnet50@1" WITHIN 95% ON memory <= 80% AND latency < 30 ms EXEC batch=4 PICK smallest LIMIT 2`,
		`SELECT TASK classification WITHIN 68% ON memory >= 2MB AND memory <= 16MB PICK all`,
		`SELECT CORR "ref1" WITHIN 7% ON flops >= 2.25% AND flops <= 18% AND latency == 289% PICK fastest`,
		`SELECT CORR "refnet@1" WITHIN 60% ON latency < 431% AND flops > 0.0012GFLOPS PICK cheapest LIMIT 10 EXEC batch=16 precision=fp16`,
		`SELECT CORR 'it"s' TASK "two words" WITHIN 0.07 ON flops < 3 TFLOPS EXEC note="a b" n=1.5 PICK ALL`,
		`SELECT CORR m ON memory < 1000000000000000000000 AND latency > .00001 EXEC`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its rendering %q does not parse: %v", in, text, err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("Parse(%q) = %+v\nrenders as %q\nwhich parses to %+v", in, q, text, back)
		}
	})
}
