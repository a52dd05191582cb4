package query

import "testing"

// mixShapes are the six query shapes of sommperf's query_mix
// (bench/gen.go's newQuery), one instance each.
var mixShapes = []struct{ name, text string }{
	{"sim", `SELECT CORR "fam3-v2@1" WITHIN 50% PICK most_similar`},
	{"budget_rel", `SELECT CORR "fam3-v2@1" WITHIN 50% ON memory <= 80% PICK smallest`},
	{"budget_abs", `SELECT CORR "fam3-v2@1" WITHIN 50% ON memory <= 0.1MB AND latency <= 0.0003ms PICK fastest`},
	{"range", `SELECT CORR "fam3-v2@1" WITHIN 50% ON flops >= 10% AND flops <= 150% PICK cheapest`},
	{"exec", `SELECT CORR "fam3-v2@1" WITHIN 50% ON memory <= 80% EXEC batch=8 PICK smallest`},
	{"task", `SELECT TASK "classification" WITHIN 50% ON memory <= 80% PICK smallest`},
}

// parseAllocCeiling is the most a mix-shape Parse may allocate: the
// Query itself, the constraint slice (one growth per constraint) and
// the EXEC map with its bucket. The lexer and validation allocate
// nothing.
var parseAllocCeiling = map[string]float64{
	"sim": 1, "budget_rel": 2, "budget_abs": 3, "range": 3, "exec": 4, "task": 2,
}

func TestParseAllocs(t *testing.T) {
	for _, s := range mixShapes {
		got := testing.AllocsPerRun(200, func() {
			if _, err := Parse(s.text); err != nil {
				t.Fatal(err)
			}
		})
		if got > parseAllocCeiling[s.name] {
			t.Errorf("Parse(%s) allocates %v times, ceiling %v", s.name, got, parseAllocCeiling[s.name])
		}
	}
}

func TestValidateAllocs(t *testing.T) {
	for _, s := range mixShapes {
		q, err := Parse(s.text)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Validate(%s) allocates %v times, want 0", s.name, got)
		}
	}
}

// BenchmarkParse is the query language's layer number: lex, parse and
// validate one query of each mix shape.
func BenchmarkParse(b *testing.B) {
	for _, s := range mixShapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(s.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
