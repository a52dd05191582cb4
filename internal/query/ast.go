package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Metric names a resource dimension a constraint may bound.
type Metric string

const (
	MetricMemory  Metric = "memory"
	MetricFLOPs   Metric = "flops"
	MetricLatency Metric = "latency"
)

// CmpOp is a constraint comparison operator.
type CmpOp string

const (
	OpLT CmpOp = "<"
	OpLE CmpOp = "<="
	OpGT CmpOp = ">"
	OpGE CmpOp = ">="
	OpEQ CmpOp = "=="
)

// Unit qualifies a constraint value.
type Unit string

const (
	// UnitRelative marks a percentage of the reference model's usage.
	UnitRelative Unit = "%"
	UnitMB       Unit = "MB"
	UnitGB       Unit = "GB"
	UnitGFLOPs   Unit = "GFLOPS"
	UnitTFLOPs   Unit = "TFLOPS"
	UnitMS       Unit = "ms"
	UnitNone     Unit = ""
)

// Constraint is one resource predicate, e.g. memory <= 80%.
type Constraint struct {
	Metric Metric
	Op     CmpOp
	Value  float64
	Unit   Unit
}

// Relative reports whether the constraint is expressed against the
// reference model rather than in absolute units.
func (c Constraint) Relative() bool { return c.Unit == UnitRelative }

func (c Constraint) String() string {
	return fmt.Sprintf("%s %s %s%s", c.Metric, c.Op, numberText(c.Value), c.Unit)
}

// numberText renders v in the shortest form that parses back to v, never
// with an exponent — the lexer has no exponent syntax, so %g's 1e+21
// would not re-parse.
func numberText(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// thresholdText renders t so it parses back to exactly t: as a percentage
// where one exists (0.07*100 is 7.000000000000001, so the rounded
// value is tried first), else as the bare fraction WITHIN also accepts.
func thresholdText(t float64) string {
	for _, pct := range []float64{math.Round(t*1e8) / 1e6, t * 100} {
		if pct/100 == t {
			return numberText(pct) + "%"
		}
	}
	return numberText(t)
}

// nameText renders a model, task or EXEC value so it lexes back to one
// token with the same text: bare when it is a single token of one of
// the kinds the clause accepts unquoted, else in whichever quote it
// does not contain. The lexer has no escapes, so nothing is escaped.
func nameText(s string, bare ...tokenKind) string {
	if toks, err := lex(s, nil); err == nil && len(toks) == 2 && toks[0].text == s {
		for _, k := range bare {
			if toks[0].kind == k {
				return s
			}
		}
	}
	if strings.Contains(s, `"`) {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// PickKind is the final selection criterion (§5.1).
type PickKind string

const (
	PickMostSimilar PickKind = "most_similar"
	PickSmallest    PickKind = "smallest"
	PickFastest     PickKind = "fastest"
	PickCheapest    PickKind = "cheapest" // fewest FLOPs
	PickAll         PickKind = "all"
)

// Query is the parsed AST of one Sommelier query.
type Query struct {
	// Ref is the reference model ID; empty when the query names a task
	// category instead and expects a default reference.
	Ref string
	// Task is the inference task category used when Ref is empty.
	Task string
	// Threshold is the functional-equivalence threshold in [0,1]
	// (WITHIN 95% → 0.95). Defaults to 0.95.
	Threshold float64
	// Constraints are the resource predicates, ANDed together.
	Constraints []Constraint
	// Exec carries the optional execution spec key/value pairs.
	Exec map[string]string
	// Pick is the final selection criterion; defaults to most_similar.
	Pick PickKind
	// Limit caps the result count; 0 means no cap.
	Limit int
}

// Validate checks semantic well-formedness beyond the grammar.
func (q *Query) Validate() error {
	if q.Ref == "" && q.Task == "" {
		return fmt.Errorf("query: needs a CORR reference model or a TASK category")
	}
	if q.Threshold < 0 || q.Threshold > 1 {
		return fmt.Errorf("query: threshold %g outside [0,1]", q.Threshold)
	}
	if q.Limit < 0 {
		return fmt.Errorf("query: negative LIMIT")
	}
	// A metric may appear in several constraints — they AND together,
	// so ranges (MEM > 10MB AND MEM < 100MB) and redundant bounds are
	// both well-defined.
	for _, c := range q.Constraints {
		switch c.Metric {
		case MetricMemory, MetricFLOPs, MetricLatency:
		default:
			return fmt.Errorf("query: unknown metric %q", c.Metric)
		}
		if c.Value < 0 {
			return fmt.Errorf("query: negative constraint value in %s", c)
		}
		if err := validUnit(c); err != nil {
			return err
		}
	}
	switch q.Pick {
	case PickMostSimilar, PickSmallest, PickFastest, PickCheapest, PickAll:
	default:
		return fmt.Errorf("query: unknown PICK criterion %q", q.Pick)
	}
	return nil
}

func validUnit(c Constraint) error {
	switch c.Unit {
	case UnitRelative, UnitNone:
		return nil
	case UnitMB, UnitGB:
		if c.Metric == MetricMemory {
			return nil
		}
	case UnitGFLOPs, UnitTFLOPs:
		if c.Metric == MetricFLOPs {
			return nil
		}
	case UnitMS:
		if c.Metric == MetricLatency {
			return nil
		}
	}
	return fmt.Errorf("query: unit %q not valid for metric %s", c.Unit, c.Metric)
}

// String renders the query back in canonical syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT")
	if q.Ref != "" {
		b.WriteString(" CORR " + nameText(q.Ref))
	}
	if q.Task != "" {
		b.WriteString(" TASK " + nameText(q.Task, tokIdent))
	}
	b.WriteString(" WITHIN " + thresholdText(q.Threshold))
	for i, c := range q.Constraints {
		if i == 0 {
			b.WriteString(" ON ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(c.String())
	}
	if len(q.Exec) > 0 {
		b.WriteString(" EXEC")
		keys := make([]string, 0, len(q.Exec))
		for k := range q.Exec {
			keys = append(keys, k)
		}
		// Stable order for reproducible output.
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, nameText(q.Exec[k], tokIdent, tokNumber))
		}
	}
	fmt.Fprintf(&b, " PICK %s", q.Pick)
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}
