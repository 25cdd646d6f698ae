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

// MapFn computes the values of an operator's output columns for one
// input row. emit may be called zero times (the row is dropped — e.g. a
// tweet mentioning no player), once (plain mapping) or several times
// (fan-out — e.g. extract_words emits one row per word). r and extra are
// reused for the next row: neither may be kept past the call.
type MapFn func(r table.Row, emit func(extra []value.V)) error

// MapOperator is one bound column transformation — the paper's task
// category 1, "transforming a column value into another value" (§4.2).
type MapOperator interface {
	// OutColumns names the columns the operator produces.
	OutColumns() []string
	// Bind compiles the operator against the input schema.
	Bind(env *Env, in *schema.Schema) (MapFn, error)
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
		"expr":             nil, // parseMap builds it: it runs on its kernel
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
// the input columns plus (or overwriting) the operator's output columns.
type MapSpec struct {
	memo
	// Operator is the configured operator name, for display.
	Operator string
	// op is a MapOperator, or the expr operator, which runs on its kernel.
	op interface{ OutColumns() []string }
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
	var op interface{ OutColumns() []string }
	var err error
	if name == "expr" {
		op, err = newExprOperator(cfg)
	} else {
		op, err = f(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("map %s: %w", name, err)
	}
	return &MapSpec{Operator: name, op: op}, nil
}

// Type implements Spec.
func (s *MapSpec) Type() string { return "map" }

// OutColumns names the columns the configured operator produces. The
// DAG optimizer consults it when deciding whether a filter commutes with
// this map.
func (s *MapSpec) OutColumns() []string { return s.op.OutColumns() }

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
	return one.Schema.ExtendOrSame(s.op.OutColumns()...), nil
}

// Exec implements Spec: the expr operator on its kernel (SEMANTICS.md
// §5), every other operator through the per-row adapter.
func (s *MapSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	if s.Expr() != nil {
		return execBound(env, s, in, names)
	}
	if _, err := s.Out(inputsOf(in, names)); err != nil {
		return nil, err
	}
	return execRowLocal(env, s.op.(MapOperator), in[0])
}

// execRowLocal is the one per-row adapter, the Exec of a map operator
// with no kernel: a text operator or a user's MapOperator. It reads t's
// batch one row at a time into one reused row, and appends each row op
// emits for it — the input's cells, with op's output columns written in
// place or after them — to a builder.
func execRowLocal(env *Env, op MapOperator, t *table.Table) (*table.Table, error) {
	fn, err := op.Bind(env, t.Schema())
	if err != nil {
		return nil, err
	}
	cols := op.OutColumns()
	out := t.Schema().ExtendOrSame(cols...)
	slots := make([]int, len(cols))
	for i, c := range cols {
		slots[i] = out.Index(c)
	}
	b, _ := colstore.FromTable(t)
	res, r, row := colstore.NewBuilder(out), make(table.Row, b.Schema().Len()), make([]value.V, out.Len())
	emit := func(extra []value.V) {
		copy(row, r)
		clear(row[len(r):])
		for i, v := range extra {
			row[slots[i]] = v
		}
		res.Append(row)
	}
	for i := range b.Len() {
		b.Row(i, r)
		if err := fn(r, emit); err != nil {
			return nil, err
		}
	}
	return res.Table(), nil
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

func (op *dateOperator) OutColumns() []string { return []string{op.output} }

func (op *dateOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, err
	}
	i := idx[0]
	return func(r table.Row, emit func([]value.V)) error {
		v := r[i]
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
				emit([]value.V{value.VNull})
				return nil
			}
		default:
			if p := value.Parse(v.Str()); p.Kind() == value.Time {
				t = p.Time()
			} else {
				emit([]value.V{value.VNull})
				return nil
			}
		}
		emit([]value.V{value.NewString(t.Format(op.outLayout))})
		return nil
	}, nil
}

// javaToGoLayout translates a Java SimpleDateFormat pattern into a Go
// time layout. It covers the tokens the platform's connectors meet:
// yyyy/yy, MMM/MM, dd/d, EEE/E, HH/hh/h, mm, ss, SSS, a, Z/ZZ, z.
func javaToGoLayout(pattern string) string {
	if pattern == "" {
		return ""
	}
	var b strings.Builder
	repl := []struct{ java, golang string }{
		{"yyyy", "2006"}, {"yy", "06"},
		{"MMMM", "January"}, {"MMM", "Jan"}, {"MM", "01"},
		{"dd", "02"},
		{"EEEE", "Monday"}, {"EEE", "Mon"}, {"E", "Mon"},
		{"HH", "15"}, {"hh", "03"}, {"h", "3"},
		{"mm", "04"},
		{"ss", "05"}, {"SSS", "000"},
		{"a", "PM"},
		{"ZZ", "-07:00"}, {"Z", "-0700"}, {"z", "MST"},
	}
	for i := 0; i < len(pattern); {
		matched := false
		for _, r := range repl {
			if strings.HasPrefix(pattern[i:], r.java) {
				b.WriteString(r.golang)
				i += len(r.java)
				matched = true
				break
			}
		}
		if !matched {
			// Single M and d outside multi-char tokens.
			switch pattern[i] {
			case 'M':
				b.WriteByte('1')
			case 'd':
				b.WriteByte('2')
			default:
				b.WriteByte(pattern[i])
			}
			i++
		}
	}
	return b.String()
}

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

func (op *extractOperator) OutColumns() []string { return []string{op.output} }

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

func (op *extractOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, err
	}
	data, ok := env.Resource(op.dict)
	if !ok {
		return nil, fmt.Errorf("extract: dictionary resource %q not found", op.dict)
	}
	dict := ParseDictionary(data)
	i := idx[0]
	return func(r table.Row, emit func([]value.V)) error {
		seen := map[string]bool{}
		for _, tok := range Tokenize(r[i].Str()) {
			std, ok := dict[tok]
			if !ok {
				// Hashtags and mentions match their bare dictionary
				// entry: "#CSK" finds "csk".
				std, ok = dict[strings.TrimLeft(tok, "#@")]
			}
			if ok && !seen[std] {
				seen[std] = true
				emit([]value.V{value.NewString(std)})
			}
		}
		return nil
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

func (op *extractLocationOperator) OutColumns() []string { return []string{op.output} }

func (op *extractLocationOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, err
	}
	data, ok := env.Resource(op.dict)
	if !ok {
		return nil, fmt.Errorf("extract_location: gazetteer resource %q not found", op.dict)
	}
	gaz := ParseDictionary(data)
	i := idx[0]
	return func(r table.Row, emit func([]value.V)) error {
		for _, tok := range Tokenize(r[i].Str()) {
			if state, ok := gaz[tok]; ok {
				emit([]value.V{value.NewString(state)})
				return nil
			}
		}
		return nil
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

func (op *extractWordsOperator) OutColumns() []string { return []string{op.output} }

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

func (op *extractWordsOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, err
	}
	i := idx[0]
	return func(r table.Row, emit func([]value.V)) error {
		for _, tok := range Tokenize(r[i].Str()) {
			if len(tok) < 3 || stopwords[tok] || strings.HasPrefix(tok, "http") {
				continue
			}
			emit([]value.V{value.NewString(tok)})
		}
		return nil
	}, nil
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
// expression: `operator: expr, expression: a * b, output: c`. Its map
// runs on the map-expr kernel.
type exprOperator struct {
	node   expr.Node
	output string
}

func newExprOperator(cfg *flowfile.Node) (*exprOperator, error) {
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

func (op *exprOperator) OutColumns() []string { return []string{op.output} }

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

func (op *caseOperator) OutColumns() []string { return []string{op.output} }

func (op *caseOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, err
	}
	i := idx[0]
	return func(r table.Row, emit func([]value.V)) error {
		emit([]value.V{value.NewString(op.fn(r[i].Str()))})
		return nil
	}, nil
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

func (op *concatOperator) OutColumns() []string { return []string{op.output} }

func (op *concatOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	idx, err := in.Require(op.transform...)
	if err != nil {
		return nil, err
	}
	return func(r table.Row, emit func([]value.V)) error {
		parts := make([]string, len(idx))
		for i, j := range idx {
			parts[i] = r[j].String()
		}
		emit([]value.V{value.NewString(strings.Join(parts, op.sep))})
		return nil
	}, nil
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

func (op *replaceOperator) OutColumns() []string { return []string{op.output} }

func (op *replaceOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, err
	}
	i := idx[0]
	return func(r table.Row, emit func([]value.V)) error {
		emit([]value.V{value.NewString(strings.ReplaceAll(r[i].Str(), op.old, op.new))})
		return nil
	}, nil
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

func (op *bucketOperator) OutColumns() []string { return []string{op.output} }

func (op *bucketOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	idx, err := in.Require(op.transform)
	if err != nil {
		return nil, err
	}
	i := idx[0]
	return func(r table.Row, emit func([]value.V)) error {
		v := r[i]
		if v.IsNull() {
			emit([]value.V{value.VNull})
			return nil
		}
		b := math.Floor(v.Float()/op.width) * op.width
		if b == math.Trunc(b) && op.width == math.Trunc(op.width) {
			emit([]value.V{value.NewInt(int64(b))})
		} else {
			emit([]value.V{value.NewFloat(b)})
		}
		return nil
	}, nil
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

func (op *constantOperator) OutColumns() []string { return []string{op.output} }

func (op *constantOperator) Bind(env *Env, in *schema.Schema) (MapFn, error) {
	return func(r table.Row, emit func([]value.V)) error {
		emit([]value.V{op.val})
		return nil
	}, nil
}
