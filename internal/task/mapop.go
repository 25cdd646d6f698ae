package task

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"shareinsights/internal/expr"
	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// CellFn makes one row's cells of a map operator's output column: it
// appends them to dst and returns it. row is the row's cells in the
// columns the operator reads. Neither slice may be kept past the call. A
// compiled program's runs share one CellFn, so it must be safe for
// concurrent use.
type CellFn = func(dst, row []value.V) []value.V

// MapOperator is one column transformation — the paper's task category 1,
// "transforming a column value into another value" (§4.2). The platform's
// operators and those RegisterOperator adds implement it alike, and it is
// all a map task knows of its operator.
type MapOperator interface {
	// Output names the one column the operator makes: an input column it
	// writes over, or a new one after the input's.
	Output() string
	// KeepsRows reports whether the operator makes exactly one cell for
	// every row. Such an operator runs on the kernels, where it fuses and
	// streams with the steps around it. One that makes any number (it
	// drops a row, or repeats it once per cell) runs alone, its input's
	// rows repeated once per cell.
	KeepsRows() bool
	// Bind compiles the operator against the input schema: the columns it
	// reads, and its cell function.
	Bind(env *Env, in *schema.Schema) (reads []int, cell CellFn, err error)
}

// OperatorFactory parses an operator's configuration from the map task's
// property block.
type OperatorFactory func(cfg *flowfile.Node) (MapOperator, error)

var (
	opMu   sync.RWMutex
	opImpl = map[string]OperatorFactory{
		"date":             newDateOperator,
		"extract":          newExtractOperator,
		"extract_location": newExtractLocationOperator,
		"extract_words":    newExtractWordsOperator,
		"expr":             newExprOperator,
		"upper":            newCaseOperator(strings.ToUpper),
		"lower":            newCaseOperator(strings.ToLower),
		"trim":             newCaseOperator(strings.TrimSpace),
		"concat":           newConcatOperator,
		"replace":          newReplaceOperator,
		"constant":         newConstantOperator,
		"bucket":           newBucketOperator,
	}
)

// RegisterOperator adds a user-defined map operator. Platform operators
// cannot be replaced.
func RegisterOperator(name string, f OperatorFactory) error {
	opMu.Lock()
	defer opMu.Unlock()
	if _, exists := opImpl[name]; exists {
		return fmt.Errorf("task: operator %q already registered", name)
	}
	opImpl[name] = f
	return nil
}

// Operators lists registered map operators, sorted.
func Operators() []string {
	opMu.RLock()
	defer opMu.RUnlock()
	out := make([]string, 0, len(opImpl))
	for n := range opImpl {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MapSpec implements the map task: it applies one operator, producing
// the input columns plus (or overwriting) the operator's output column.
type MapSpec struct {
	memo
	// Operator is the configured operator name, for display.
	Operator string
	op       MapOperator
}

func parseMap(cfg *flowfile.Node) (Spec, error) {
	name := cfg.Str("operator")
	if name == "" {
		return nil, fmt.Errorf("map: missing operator")
	}
	opMu.RLock()
	f, ok := opImpl[name]
	opMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("map: unknown operator %q (have %s)", name, strings.Join(Operators(), ", "))
	}
	op, err := f(cfg)
	if err != nil {
		return nil, fmt.Errorf("map %s: %w", name, err)
	}
	return &MapSpec{Operator: name, op: op}, nil
}

// Type implements Spec.
func (s *MapSpec) Type() string { return "map" }

// OutColumns names the column the configured operator produces. The DAG
// optimizer consults it when deciding whether a filter commutes with this
// map.
func (s *MapSpec) OutColumns() []string { return []string{s.op.Output()} }

// KeepsRows reports whether the operator makes one cell for every row
// (MapOperator.KeepsRows): Kernel admits the map, and flowcheck carries
// its input's row count through it.
func (s *MapSpec) KeepsRows() bool { return s.op.KeepsRows() }

// Expr returns the parsed expression of an expr operator, nil for every
// other operator.
func (s *MapSpec) Expr() expr.Node {
	if op, ok := s.op.(*exprOperator); ok {
		return op.node
	}
	return nil
}

// Out implements Spec. An expr operator requires its expression's
// columns, as a filter expression's are.
func (s *MapSpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("map", in)
	if err != nil {
		return nil, err
	}
	if e := s.Expr(); e != nil {
		if _, err := one.Schema.Require(expr.Columns(e)...); err != nil {
			return nil, err
		}
	}
	return one.Schema.ExtendOrSame(s.op.Output()), nil
}

// Exec implements Spec: an operator that keeps every row on its kernel
// (SEMANTICS.md §5, §11), any other over its input's batch, each row
// repeated once per cell it makes.
func (s *MapSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	if s.KeepsRows() {
		return execBound(env, s, in, names)
	}
	out, err := s.Out(inputsOf(in, names))
	if err != nil {
		return nil, err
	}
	reads, cell, err := s.op.Bind(env, in[0].Schema())
	if err != nil {
		return nil, err
	}
	b, _ := colstore.FromTable(in[0])
	return colstore.Explode(b, reads, cell, out, out.Index(s.op.Output())).ToTable(), nil
}

// eval compiles the operator, one that keeps every row, over in: an
// expression to its one executable form, colstore.CompileVec, any other
// operator's cells through colstore.CompileCells.
func (s *MapSpec) eval(env *Env, in *schema.Schema) (*colstore.VecEval, error) {
	if e := s.Expr(); e != nil {
		return colstore.CompileVec(e, in)
	}
	reads, cell, err := s.op.Bind(env, in)
	if err != nil {
		return nil, err
	}
	return colstore.CompileCells(reads, cell), nil
}

// ---------------------------------------------------------------------
// date operator

// dateOperator reformats a timestamp column. The paper configures it
// with Java SimpleDateFormat patterns ("E MMM dd HH:mm:ss Z yyyy");
// javaToGoLayout translates those to Go reference layouts.
type dateOperator struct {
	transform string
	inLayout  string
	outLayout string
	output    string
}

func newDateOperator(cfg *flowfile.Node) (MapOperator, error) {
	op := &dateOperator{
		transform: cfg.Str("transform"),
		inLayout:  javaToGoLayout(cfg.Str("input_format")),
		outLayout: javaToGoLayout(cfg.Str("output_format")),
		output:    cfg.Str("output"),
	}
	if op.transform == "" || op.output == "" {
		return nil, fmt.Errorf("date: need transform and output columns")
	}
	if op.outLayout == "" {
		return nil, fmt.Errorf("date: need output_format")
	}
	return op, nil
}

func (op *dateOperator) Output() string  { return op.output }
func (op *dateOperator) KeepsRows() bool { return true }

func (op *dateOperator) Bind(env *Env, in *schema.Schema) ([]int, CellFn, error) {
	idx, err := in.Require(op.transform)
	return idx, func(dst, row []value.V) []value.V {
		v := row[0]
		var t time.Time
		switch {
		case v.Kind() == value.Time:
			t = v.Time()
		case op.inLayout != "":
			var perr error
			t, perr = time.Parse(op.inLayout, v.Str())
			if perr != nil {
				// Malformed timestamps pass through as null rather than
				// aborting a million-row flow.
				return append(dst, value.VNull)
			}
		default:
			if p := value.Parse(v.Str()); p.Kind() == value.Time {
				t = p.Time()
			} else {
				return append(dst, value.VNull)
			}
		}
		return append(dst, value.NewString(t.Format(op.outLayout)))
	}, err
}

// javaToGoLayout translates a Java SimpleDateFormat pattern into a Go
// time layout, token by token: at each position the first token listed
// that matches (a strings.Replacer compares in argument order). It covers
// the tokens the platform's connectors meet; a lone M or d is a month or
// day without padding, and any other byte stands for itself.
var javaToGoLayout = strings.NewReplacer(
	"yyyy", "2006", "yy", "06", "MMMM", "January", "MMM", "Jan", "MM", "01", "dd", "02",
	"EEEE", "Monday", "EEE", "Mon", "E", "Mon", "HH", "15", "hh", "03", "h", "3",
	"mm", "04", "ss", "05", "SSS", "000", "a", "PM", "ZZ", "-07:00", "Z", "-0700", "z", "MST",
	"M", "1", "d", "2").Replace

// ---------------------------------------------------------------------
// extract operator

// extractOperator scans a text column for dictionary terms and emits the
// standardized name of every match — the paper's player/team extraction,
// driven by "an user provided dictionary (which maps the multitude of
// player names — abbreviations, nick names etc — to a standardized
// player name)". Rows without any match are dropped.
//
// Dictionary resource format, one entry per line:
//
//	variant => standard
//	variant,standard        (CSV form)
//	term                    (term standardizes to itself)
type extractOperator struct {
	transform string
	dict      string
	output    string
}

func newExtractOperator(cfg *flowfile.Node) (MapOperator, error) {
	op := &extractOperator{
		transform: cfg.Str("transform"),
		dict:      cfg.Str("dict"),
		output:    cfg.Str("output"),
	}
	if op.transform == "" || op.output == "" || op.dict == "" {
		return nil, fmt.Errorf("extract: need transform, dict and output")
	}
	return op, nil
}

func (op *extractOperator) Output() string  { return op.output }
func (op *extractOperator) KeepsRows() bool { return false }

// ParseDictionary parses a term dictionary resource. Exported because
// the gen package reuses it for building fixtures.
func ParseDictionary(data []byte) map[string]string {
	dict := map[string]string{}
	for _, ln := range strings.Split(string(data), "\n") {
		ln = strings.TrimSpace(ln)
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		switch {
		case strings.Contains(ln, "=>"):
			parts := strings.SplitN(ln, "=>", 2)
			dict[normTerm(parts[0])] = strings.TrimSpace(parts[1])
		case strings.Contains(ln, ","):
			parts := strings.SplitN(ln, ",", 2)
			dict[normTerm(parts[0])] = strings.TrimSpace(parts[1])
		default:
			dict[normTerm(ln)] = ln
		}
	}
	return dict
}

func normTerm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

func (op *extractOperator) Bind(env *Env, in *schema.Schema) ([]int, CellFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, nil, err
	}
	data, ok := env.Resource(op.dict)
	if !ok {
		return nil, nil, fmt.Errorf("extract: dictionary resource %q not found", op.dict)
	}
	dict := ParseDictionary(data)
	return idx, func(dst, row []value.V) []value.V {
		n := len(dst)
	tokens:
		for _, tok := range Tokenize(row[0].Str()) {
			std, ok := dict[tok]
			if !ok {
				// Hashtags and mentions match their bare dictionary
				// entry: "#CSK" finds "csk".
				std, ok = dict[strings.TrimLeft(tok, "#@")]
			}
			if !ok {
				continue
			}
			for _, v := range dst[n:] {
				if v.Str() == std {
					continue tokens
				}
			}
			dst = append(dst, value.NewString(std))
		}
		return dst
	}, nil
}

// ---------------------------------------------------------------------
// extract_location operator

// extractLocationOperator maps free-text location strings to a region
// (state) using a gazetteer resource. Configuration mirrors the paper:
// `match: city`, `country: IND`, plus a `dict` resource of
// "city,state" lines (the platform ships no world gazetteer offline).
// Rows without a recognized city are dropped.
type extractLocationOperator struct {
	transform string
	dict      string
	output    string
	country   string
}

func newExtractLocationOperator(cfg *flowfile.Node) (MapOperator, error) {
	op := &extractLocationOperator{
		transform: cfg.Str("transform"),
		dict:      cfg.Str("dict"),
		output:    cfg.Str("output"),
		country:   cfg.Str("country"),
	}
	if op.dict == "" {
		op.dict = "cities." + strings.ToLower(op.country) + ".csv"
	}
	if op.transform == "" || op.output == "" {
		return nil, fmt.Errorf("extract_location: need transform and output")
	}
	return op, nil
}

func (op *extractLocationOperator) Output() string  { return op.output }
func (op *extractLocationOperator) KeepsRows() bool { return false }

func (op *extractLocationOperator) Bind(env *Env, in *schema.Schema) ([]int, CellFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, nil, err
	}
	data, ok := env.Resource(op.dict)
	if !ok {
		return nil, nil, fmt.Errorf("extract_location: gazetteer resource %q not found", op.dict)
	}
	gaz := ParseDictionary(data)
	return idx, func(dst, row []value.V) []value.V {
		for _, tok := range Tokenize(row[0].Str()) {
			if state, ok := gaz[tok]; ok {
				return append(dst, value.NewString(state))
			}
		}
		return dst
	}, nil
}

// ---------------------------------------------------------------------
// extract_words operator

// extractWordsOperator tokenizes a text column and emits one row per
// content word — the tag-cloud feed. Stopwords and words shorter than
// three characters are dropped.
type extractWordsOperator struct {
	transform string
	output    string
}

func newExtractWordsOperator(cfg *flowfile.Node) (MapOperator, error) {
	op := &extractWordsOperator{transform: cfg.Str("transform"), output: cfg.Str("output")}
	if op.transform == "" || op.output == "" {
		return nil, fmt.Errorf("extract_words: need transform and output")
	}
	return op, nil
}

func (op *extractWordsOperator) Output() string  { return op.output }
func (op *extractWordsOperator) KeepsRows() bool { return false }

var stopwords = func() map[string]bool {
	words := strings.Fields(`the and for with that this from are was you your have has had
		not but all can will our out they them his her she him its it's just what when
		who how why where which there here been being were over under very more most
		into than then also about after before during between`)
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}()

func (op *extractWordsOperator) Bind(env *Env, in *schema.Schema) ([]int, CellFn, error) {
	idx, err := in.Require(op.transform)
	return idx, func(dst, row []value.V) []value.V {
		for _, tok := range Tokenize(row[0].Str()) {
			if len(tok) >= 3 && !stopwords[tok] && !strings.HasPrefix(tok, "http") {
				dst = append(dst, value.NewString(tok))
			}
		}
		return dst
	}, err
}

// Tokenize lower-cases text and splits it into alphanumeric tokens.
func Tokenize(s string) []string {
	s = strings.ToLower(s)
	return strings.FieldsFunc(s, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '#' || r == '@' || r == ':' || r == '/' || r == '.')
	})
}

// ---------------------------------------------------------------------
// general-purpose operators

// exprOperator computes one output column from a filter-language
// expression: `operator: expr, expression: a * b, output: c`. It has no
// cell function: MapSpec compiles its expression whole, to its one
// executable form (colstore.CompileVec).
type exprOperator struct {
	node   expr.Node
	output string
}

func newExprOperator(cfg *flowfile.Node) (MapOperator, error) {
	src, output := cfg.Str("expression"), cfg.Str("output")
	if src == "" || output == "" {
		return nil, fmt.Errorf("expr: need expression and output")
	}
	n, err := expr.Parse(src)
	if err != nil {
		return nil, err
	}
	return &exprOperator{node: n, output: output}, nil
}

func (op *exprOperator) Output() string  { return op.output }
func (op *exprOperator) KeepsRows() bool { return true }

func (op *exprOperator) Bind(*Env, *schema.Schema) ([]int, CellFn, error) {
	return nil, nil, fmt.Errorf("expr: an expression compiles whole, with colstore.CompileVec")
}

// caseOperator applies a string function in place or to an output column.
type caseOperator struct {
	transform string
	output    string
	fn        func(string) string
}

func newCaseOperator(fn func(string) string) OperatorFactory {
	return func(cfg *flowfile.Node) (MapOperator, error) {
		op := &caseOperator{transform: cfg.Str("transform"), output: cfg.Str("output"), fn: fn}
		if op.transform == "" {
			return nil, fmt.Errorf("need transform column")
		}
		if op.output == "" {
			op.output = op.transform
		}
		return op, nil
	}
}

func (op *caseOperator) Output() string  { return op.output }
func (op *caseOperator) KeepsRows() bool { return true }

func (op *caseOperator) Bind(env *Env, in *schema.Schema) ([]int, CellFn, error) {
	idx, err := in.Require(op.transform)
	return idx, func(dst, row []value.V) []value.V {
		return append(dst, value.NewString(op.fn(row[0].Str())))
	}, err
}

// concatOperator joins several columns with a separator.
type concatOperator struct {
	transform []string
	sep       string
	output    string
}

func newConcatOperator(cfg *flowfile.Node) (MapOperator, error) {
	op := &concatOperator{
		transform: cfg.StrList("transform"),
		sep:       cfg.Str("separator"),
		output:    cfg.Str("output"),
	}
	if len(op.transform) == 0 || op.output == "" {
		return nil, fmt.Errorf("concat: need transform columns and output")
	}
	return op, nil
}

func (op *concatOperator) Output() string  { return op.output }
func (op *concatOperator) KeepsRows() bool { return true }

func (op *concatOperator) Bind(env *Env, in *schema.Schema) ([]int, CellFn, error) {
	idx, err := in.Require(op.transform...)
	return idx, func(dst, row []value.V) []value.V {
		var b strings.Builder
		for i, v := range row {
			if i > 0 {
				b.WriteString(op.sep)
			}
			b.WriteString(v.String())
		}
		return append(dst, value.NewString(b.String()))
	}, err
}

// replaceOperator substitutes text in a column.
type replaceOperator struct {
	transform string
	old, new  string
	output    string
}

func newReplaceOperator(cfg *flowfile.Node) (MapOperator, error) {
	op := &replaceOperator{
		transform: cfg.Str("transform"),
		old:       cfg.Str("old"),
		new:       cfg.Str("new"),
		output:    cfg.Str("output"),
	}
	if op.transform == "" || op.old == "" {
		return nil, fmt.Errorf("replace: need transform and old")
	}
	if op.output == "" {
		op.output = op.transform
	}
	return op, nil
}

func (op *replaceOperator) Output() string  { return op.output }
func (op *replaceOperator) KeepsRows() bool { return true }

func (op *replaceOperator) Bind(env *Env, in *schema.Schema) ([]int, CellFn, error) {
	idx, err := in.Require(op.transform)
	return idx, func(dst, row []value.V) []value.V {
		return append(dst, value.NewString(strings.ReplaceAll(row[0].Str(), op.old, op.new)))
	}, err
}

// bucketOperator quantizes a numeric column: floor(v / width) * width.
// Histogram feeds (activity by hour, sizes by kilobyte) use it.
type bucketOperator struct {
	transform string
	output    string
	width     float64
}

func newBucketOperator(cfg *flowfile.Node) (MapOperator, error) {
	op := &bucketOperator{transform: cfg.Str("transform"), output: cfg.Str("output")}
	if op.transform == "" {
		return nil, fmt.Errorf("bucket: need transform column")
	}
	if op.output == "" {
		op.output = op.transform
	}
	w := cfg.Str("width")
	if w == "" {
		op.width = 1
	} else {
		v := value.Parse(w)
		op.width = v.Float()
	}
	if op.width <= 0 {
		return nil, fmt.Errorf("bucket: width must be positive, got %q", w)
	}
	return op, nil
}

func (op *bucketOperator) Output() string  { return op.output }
func (op *bucketOperator) KeepsRows() bool { return true }

func (op *bucketOperator) Bind(env *Env, in *schema.Schema) ([]int, CellFn, error) {
	idx, err := in.Require(op.transform)
	return idx, func(dst, row []value.V) []value.V {
		if row[0].IsNull() {
			return append(dst, value.VNull)
		}
		b := math.Floor(row[0].Float()/op.width) * op.width
		if b == math.Trunc(b) && op.width == math.Trunc(op.width) {
			return append(dst, value.NewInt(int64(b)))
		}
		return append(dst, value.NewFloat(b))
	}, err
}

// constantOperator adds a fixed-value column.
type constantOperator struct {
	output string
	val    value.V
}

func newConstantOperator(cfg *flowfile.Node) (MapOperator, error) {
	op := &constantOperator{output: cfg.Str("output"), val: value.Parse(cfg.Str("value"))}
	if op.output == "" {
		return nil, fmt.Errorf("constant: need output")
	}
	return op, nil
}

func (op *constantOperator) Output() string  { return op.output }
func (op *constantOperator) KeepsRows() bool { return true }

func (op *constantOperator) Bind(*Env, *schema.Schema) ([]int, CellFn, error) {
	return nil, func(dst, _ []value.V) []value.V { return append(dst, op.val) }, nil
}
