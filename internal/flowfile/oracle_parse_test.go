package flowfile

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shareinsights/internal/schema"
)

// The parser that allocated one object per node, entry, list item and
// reference, kept (renamed) as the reference the slab-carving parser is
// held to: for every input Parse must return a File reflect.DeepEqual to
// this one's, or an error with the same text. It is the old scanner, tree
// builder and section decoders verbatim but for two fixes, which Parse
// carries too:
//
//   - oracleScan expands tabs on a bracket continuation line as on every
//     other physical line;
//   - an `=>` schema mapping with an empty path, and a data object whose
//     name is empty (`D.:`, `+D.:`), are errors;
//   - every error in a data object's schema list or detail block, in the
//     D section or outside it, names the object and exactly one line, the
//     innermost.

func oracleNewMap(line int) *Node { return &Node{Kind: MapNode, Line: line} }

func oracleNewList(line int) *Node { return &Node{Kind: ListNode, Line: line} }

func oracleNewScalar(line int, s string) *Node { return &Node{Kind: ScalarNode, Line: line, Scalar: s} }

// set appends key → child, preserving order. Duplicates are permitted at
// this layer; section decoders reject them where the language forbids it.
func (n *Node) oracleSet(key string, child *Node) {
	n.Entries = append(n.Entries, MapEntry{Key: key, Value: child})
}

// scan converts source text into logical lines, joining physical lines
// whose brackets are unbalanced (multi-line schema lists, Figure 6).
func oracleScan(src string) ([]line, error) {
	var out []line
	raw := strings.Split(src, "\n")
	for i := 0; i < len(raw); i++ {
		num := i + 1
		text := splitComment(strings.ReplaceAll(raw[i], "\t", "    "))
		if strings.TrimSpace(text) == "" {
			continue
		}
		indent := 0
		for indent < len(text) && text[indent] == ' ' {
			indent++
		}
		body := strings.TrimRight(text[indent:], " ")
		// Join continuation lines while brackets are open.
		for bracketDelta(body) > 0 && i+1 < len(raw) {
			i++
			body += " " + strings.TrimSpace(splitComment(strings.ReplaceAll(raw[i], "\t", "    ")))
		}
		if bracketDelta(body) != 0 {
			return nil, fmt.Errorf("line %d: unbalanced brackets", num)
		}
		// Join pipeline continuations: a logical line ending in the pipe
		// operator continues on the next physical line (Appendix A style).
		for strings.HasSuffix(strings.TrimSpace(body), "|") && i+1 < len(raw) {
			i++
			body += " " + strings.TrimSpace(splitComment(strings.ReplaceAll(raw[i], "\t", "    ")))
		}
		l := line{num: num, indent: indent}
		if strings.HasPrefix(body, "- ") || body == "-" {
			l.isItem = true
			body = strings.TrimSpace(strings.TrimPrefix(body, "-"))
		}
		if k, v, ok := splitKey(body); ok {
			l.key = k
			l.hasKey = true
			l.rest = v
		} else {
			l.rest = body
		}
		out = append(out, l)
	}
	return out, nil
}

// oracleParseBlock consumes lines at exactly the indentation of the first line
// into parent (a MapNode or ListNode chosen by content), returning the
// unconsumed tail.
func oracleParseBlock(lines []line, minIndent int, parent *Node) ([]line, error) {
	if len(lines) == 0 {
		return lines, nil
	}
	indent := lines[0].indent
	if indent < minIndent {
		return lines, nil
	}
	for len(lines) > 0 {
		l := lines[0]
		if l.indent < indent {
			return lines, nil
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indent", l.num)
		}
		switch {
		case l.isItem:
			if parent.Kind == MapNode && len(parent.Entries) > 0 {
				return nil, fmt.Errorf("line %d: list item inside property block", l.num)
			}
			parent.Kind = ListNode
			var err error
			lines, err = oracleParseListItem(lines, parent)
			if err != nil {
				return nil, err
			}
		case l.hasKey:
			if parent.Kind == ListNode && len(parent.Items) > 0 {
				return nil, fmt.Errorf("line %d: property inside list block", l.num)
			}
			parent.Kind = MapNode
			child, rest, err := oracleParseValue(l, lines[1:])
			if err != nil {
				return nil, err
			}
			parent.oracleSet(l.key, child)
			lines = rest
		default:
			// A bare scalar line: only legal as the entire body of a block
			// value, e.g. the Figure 9 style where a flow's pipeline sits
			// on its own line under "+D.name:".
			if parent.Kind != ListNode && len(parent.Entries) == 0 && len(parent.Items) == 0 {
				if parent.Scalar != "" {
					parent.Scalar += " "
				}
				parent.Kind = ScalarNode
				parent.Scalar += l.rest
				lines = lines[1:]
				continue
			}
			return nil, fmt.Errorf("line %d: expected 'key:' or '- item', got %q", l.num, l.rest)
		}
	}
	return lines, nil
}

// oracleParseListItem consumes one "- ..." item (possibly a multi-line map
// item, as in groupby aggregates) and appends it to list.
func oracleParseListItem(lines []line, list *Node) ([]line, error) {
	l := lines[0]
	lines = lines[1:]
	if !l.hasKey {
		// "- scalar" or "- [inline, list]"
		list.Items = append(list.Items, oracleParseInline(l.num, l.rest))
		return lines, nil
	}
	// "- key: value" starts a map item; following deeper-indented keyed
	// lines belong to it. The paper also indents continuation keys to the
	// same column as the key after "- " — handle both by accepting keyed
	// lines at indent > l.indent as continuations.
	item := oracleNewMap(l.num)
	var first *Node
	if l.rest != "" {
		first = oracleParseInline(l.num, l.rest)
	} else {
		first = oracleNewMap(l.num)
		if len(lines) > 0 && lines[0].indent > l.indent+2 && !lines[0].isItem {
			var err error
			lines, err = oracleParseBlock(lines, lines[0].indent, first)
			if err != nil {
				return nil, err
			}
		}
	}
	item.oracleSet(l.key, first)
	for len(lines) > 0 {
		n := lines[0]
		if n.isItem || !n.hasKey || n.indent <= l.indent {
			break
		}
		child, rest, err := oracleParseValue(n, lines[1:])
		if err != nil {
			return nil, err
		}
		item.oracleSet(n.key, child)
		lines = rest
	}
	list.Items = append(list.Items, item)
	return lines, nil
}

// oracleParseValue parses the value of the keyed line l: the inline value after
// its colon, or else the block indented deeper than l that starts lines
// (an empty map when there is none). It returns the unconsumed tail.
func oracleParseValue(l line, lines []line) (*Node, []line, error) {
	if l.rest != "" {
		return oracleParseInline(l.num, l.rest), lines, nil
	}
	child := oracleNewMap(l.num)
	if len(lines) > 0 && lines[0].indent > l.indent {
		var err error
		if lines, err = oracleParseBlock(lines, lines[0].indent, child); err != nil {
			return nil, nil, err
		}
	}
	return child, lines, nil
}

// oracleParseInline parses an inline value: a bracketed list or a scalar.
func oracleParseInline(num int, s string) *Node {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		list := oracleNewList(num)
		for _, part := range oracleSplitTopLevel(s[1:len(s)-1], ',') {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			list.Items = append(list.Items, oracleParseInline(num, part))
		}
		return list
	}
	return oracleNewScalar(num, unquote(s))
}

// oracleSplitTopLevel splits s on sep outside quotes/brackets.
func oracleSplitTopLevel(s string, sep byte) []string {
	var parts []string
	start := 0
	scanTop(s, func(i, depth int) bool {
		if s[i] == sep && depth == 0 {
			parts, start = append(parts, s[start:i]), i+1
		}
		return true
	})
	return append(parts, s[start:])
}

// Parse parses flow-file source text into the typed AST.
//
// The top level is a sequence of sections:
//
//	D:        data objects (schemas and/or source details)
//	F:        flows
//	T:        tasks
//	W:        widgets
//	L:        layout
//	D.name:   data details for one object (the grammar's dataDetailsSection)
//
// Sections may repeat and interleave; later entries extend earlier ones.
func oracleParse(name, src string) (*File, error) {
	root, err := oracleParseSource(src)
	if err != nil {
		return nil, err
	}
	f := NewFile(name)
	for _, e := range root.Entries {
		key, node := e.Key, e.Value
		switch {
		case key == "D":
			err = f.oracleDecodeDataSection(node)
		case key == "F":
			err = f.oracleDecodeFlowSection(node)
		case key == "T":
			err = f.oracleDecodeTaskSection(node)
		case key == "W":
			err = f.oracleDecodeWidgetSection(node)
		case key == "L":
			err = f.oracleDecodeLayoutSection(node)
		case strings.HasPrefix(key, "D.") || strings.HasPrefix(key, "+D."):
			err = f.oracleDecodeTopLevelData(key, node)
		default:
			err = fmt.Errorf("line %d: unknown section %q (want D, F, T, W, L or D.<name>)", node.Line, key)
		}
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// oracleParseSource runs the scanner and generic tree builder. Duplicate
// section keys (a file with two F: blocks) are merged.
func oracleParseSource(src string) (*Node, error) {
	lines, err := oracleScan(src)
	if err != nil {
		return nil, err
	}
	// The generic tree rejects duplicate keys; flow files legitimately
	// repeat section headers, so merge duplicates at the top level by
	// suffixing and regrouping afterwards would complicate ordering.
	// Instead split the line stream into top-level chunks and parse each.
	root := oracleNewMap(1)
	for len(lines) > 0 {
		l := lines[0]
		if l.indent != 0 || !l.hasKey || l.isItem {
			return nil, fmt.Errorf("line %d: expected a top-level section header", l.num)
		}
		chunk := []line{l}
		rest := lines[1:]
		for len(rest) > 0 && rest[0].indent > 0 {
			chunk = append(chunk, rest[0])
			rest = rest[1:]
		}
		lines = rest
		sub := oracleNewMap(l.num)
		if _, err := oracleParseBlock(chunk, 0, sub); err != nil {
			return nil, err
		}
		child := sub.Get(l.key)
		if prev := root.Get(l.key); prev != nil && (l.key == "D" || l.key == "F" || l.key == "T" || l.key == "W") {
			if err := oracleMergeNodes(prev, child); err != nil {
				return nil, err
			}
			continue
		}
		root.oracleSet(l.key, child)
	}
	return root, nil
}

// oracleMergeNodes appends the entries of src into dst (both maps or lists).
func oracleMergeNodes(dst, src *Node) error {
	if dst.Kind != src.Kind {
		return fmt.Errorf("line %d: section re-opened with different shape", src.Line)
	}
	switch dst.Kind {
	case MapNode:
		dst.Entries = append(dst.Entries, src.Entries...)
	case ListNode:
		dst.Items = append(dst.Items, src.Items...)
	default:
		return fmt.Errorf("line %d: cannot merge scalar sections", src.Line)
	}
	return nil
}

// ---------------------------------------------------------------------
// D section

func (f *File) oracleDecodeDataSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: D section must be a map of data objects", n.Line)
	}
	for _, en := range n.Entries {
		name, entry := en.Key, en.Value
		if name == "D." {
			return fmt.Errorf("line %d: data object %q has no name", entry.Line, name)
		}
		d := f.oracleEnsureData(strings.TrimPrefix(name, "D."), entry.Line)
		switch entry.Kind {
		case ListNode:
			s, err := oracleDecodeSchema(entry)
			if err != nil {
				return fmt.Errorf("line %d: data %q: %w", entry.Line, d.Name, err)
			}
			d.Schema = s
		case MapNode:
			if line, err := oracleDecodeDataDetails(d, entry); err != nil {
				return fmt.Errorf("line %d: data %q: %w", line, d.Name, err)
			}
		case ScalarNode:
			// "D.out: D.in | T.x" written inside the D section is a flow.
			if strings.Contains(entry.Scalar, "|") || strings.HasPrefix(entry.Scalar, "D.") {
				if err := f.oracleAddFlowEntry(name, entry); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("line %d: data %q: expected schema list or detail block", entry.Line, d.Name)
		}
	}
	return nil
}

func oracleDecodeSchema(n *Node) (*schema.Schema, error) {
	cols := make([]schema.Column, 0, len(n.Items))
	for _, it := range n.Items {
		if it.Kind != ScalarNode {
			return nil, fmt.Errorf("schema entries must be column names or path => column mappings")
		}
		text := it.Scalar
		if i := strings.Index(text, "=>"); i >= 0 {
			if strings.TrimSpace(text[:i]) == "" {
				return nil, fmt.Errorf("mapping %q has no path", text)
			}
			cols = append(cols, schema.Column{
				Path: strings.TrimSpace(text[:i]),
				Name: strings.TrimSpace(text[i+2:]),
			})
		} else {
			cols = append(cols, schema.Column{Name: strings.TrimSpace(text)})
		}
	}
	return schema.New(cols...)
}

func oracleDecodeDataDetails(d *DataDef, n *Node) (int, error) {
	for _, en := range n.Entries {
		key, v := en.Key, en.Value
		switch key {
		case "endpoint":
			d.Endpoint = v.Kind == ScalarNode && strings.EqualFold(v.Scalar, "true")
		case "publish":
			d.Publish = v.Scalar
		case "schema":
			if v.Kind != ListNode {
				return v.Line, fmt.Errorf("schema must be a list")
			}
			s, err := oracleDecodeSchema(v)
			if err != nil {
				return v.Line, err
			}
			d.Schema = s
		default:
			switch v.Kind {
			case ScalarNode:
				d.SetProp(key, v.Scalar)
			case MapNode:
				// Nested detail blocks (http_headers:) flatten to
				// dotted property names.
				for _, se := range v.Entries {
					sub, sv := se.Key, se.Value
					if sv.Kind != ScalarNode {
						return sv.Line, fmt.Errorf("property %s.%s must be scalar", key, sub)
					}
					d.SetProp(key+"."+sub, sv.Scalar)
				}
			case ListNode:
				vals := make([]string, 0, len(v.Items))
				for _, it := range v.Items {
					vals = append(vals, it.Scalar)
				}
				d.SetProp(key, strings.Join(vals, ","))
			}
		}
	}
	return 0, nil
}

func (f *File) oracleDecodeTopLevelData(key string, n *Node) error {
	name := strings.TrimPrefix(strings.TrimPrefix(key, "+"), "D.")
	if name == "" {
		return fmt.Errorf("line %d: data object %q has no name", n.Line, key)
	}
	d := f.oracleEnsureData(name, n.Line)
	if strings.HasPrefix(key, "+") {
		d.Endpoint = true
	}
	switch n.Kind {
	case MapNode:
		if line, err := oracleDecodeDataDetails(d, n); err != nil {
			return fmt.Errorf("line %d: data %q: %w", line, name, err)
		}
	case ScalarNode:
		// "+D.name:" followed by a bare pipeline (Figure 9).
		return f.oracleAddFlowEntry(key, n)
	case ListNode:
		s, err := oracleDecodeSchema(n)
		if err != nil {
			return fmt.Errorf("line %d: data %q: %w", n.Line, name, err)
		}
		d.Schema = s
	}
	return nil
}

// ---------------------------------------------------------------------
// F section

func (f *File) oracleDecodeFlowSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: F section must be a map of flows", n.Line)
	}
	for _, en := range n.Entries {
		key, entry := en.Key, en.Value
		var err error
		switch {
		case entry.Kind == ScalarNode:
			err = f.oracleAddFlowEntry(key, entry)
		case entry.Kind == MapNode && (strings.HasPrefix(key, "D.") || strings.HasPrefix(key, "+D.")):
			// Data-detail blocks may appear inside F (Figure 19 publishes
			// a sink right next to its flow).
			err = f.oracleDecodeTopLevelData(key, entry)
		default:
			err = fmt.Errorf("line %d: flow %q must map to a pipeline", entry.Line, key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// oracleAddFlowEntry parses one flow: key is "D.out", "+D.out" or
// "(D.a, D.b)"; val is the pipeline expression.
func (f *File) oracleAddFlowEntry(key string, val *Node) error {
	endpoint := strings.HasPrefix(key, "+")
	if endpoint {
		key = strings.TrimSpace(key[1:])
	}
	outs, err := oracleParseRefs(key)
	if err != nil {
		return fmt.Errorf("line %d: flow output: %w", val.Line, err)
	}
	for _, o := range outs {
		if o.Section != "D" {
			return fmt.Errorf("line %d: flow output %s is not a data object", val.Line, o)
		}
		if d := f.oracleEnsureData(o.Name, val.Line); endpoint {
			d.Endpoint = true
		}
	}
	p, err := oracleParsePipeline(val.Scalar)
	if err != nil {
		return fmt.Errorf("line %d: flow %s: %w", val.Line, key, err)
	}
	for _, in := range p.Inputs {
		f.oracleEnsureData(in.Name, val.Line)
	}
	f.Flows = append(f.Flows, &Flow{Outputs: outs, Pipeline: p, Line: val.Line})
	return nil
}

// ---------------------------------------------------------------------
// T section

func (f *File) oracleDecodeTaskSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: T section must be a map of tasks", n.Line)
	}
	for _, en := range n.Entries {
		name, entry := en.Key, en.Value
		if entry.Kind != MapNode {
			return fmt.Errorf("line %d: task %q must be a property block", entry.Line, name)
		}
		typ := entry.Str("type")
		if typ == "" && entry.Get("parallel") != nil {
			typ = "parallel"
		}
		if typ == "" {
			return fmt.Errorf("line %d: task %q has no type", entry.Line, name)
		}
		if err := f.AddTask(&TaskDef{Name: name, Type: typ, Config: entry, Line: entry.Line}); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// W section

func (f *File) oracleDecodeWidgetSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: W section must be a map of widgets", n.Line)
	}
	for _, en := range n.Entries {
		name, entry := en.Key, en.Value
		if entry.Kind != MapNode {
			return fmt.Errorf("line %d: widget %q must be a property block", entry.Line, name)
		}
		w := &WidgetDef{Name: name, Type: entry.Str("type"), Config: entry, Line: entry.Line}
		if w.Type == "" {
			return fmt.Errorf("line %d: widget %q has no type", entry.Line, name)
		}
		if src := entry.Get("source"); src != nil {
			switch src.Kind {
			case ScalarNode:
				p, err := oracleParsePipeline(src.Scalar)
				if err != nil {
					return fmt.Errorf("line %d: widget %q source: %w", src.Line, name, err)
				}
				w.Source = p
			case ListNode:
				for _, it := range src.Items {
					w.Static = append(w.Static, it.Scalar)
				}
			}
		}
		if err := f.AddWidget(w); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// L section

func (f *File) oracleDecodeLayoutSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: L section must be a property block", n.Line)
	}
	l := &LayoutDef{Description: n.Str("description"), Line: n.Line}
	if rows := n.Get("rows"); rows != nil {
		if rows.Kind != ListNode {
			return fmt.Errorf("line %d: layout rows must be a list", rows.Line)
		}
		for _, rowNode := range rows.Items {
			row, err := oracleDecodeLayoutRow(rowNode)
			if err != nil {
				return err
			}
			l.Rows = append(l.Rows, row)
		}
	}
	f.Layout = l
	return nil
}

// oracleDecodeLayoutRow decodes one layout row node: a list of
// "spanN: W.widget" cells. Widget sub-layouts (type Layout in the W
// section) reuse it.
func oracleDecodeLayoutRow(n *Node) (LayoutRow, error) {
	var row LayoutRow
	items := n.Items
	switch n.Kind {
	case ScalarNode: // a single-cell row may be written without brackets
		items = []*Node{n}
	case MapNode:
		return row, fmt.Errorf("line %d: layout row must be a list of cells", n.Line)
	}
	for _, it := range items {
		if it.Kind != ScalarNode {
			return row, fmt.Errorf("line %d: layout cell must be span<N>: W.<widget>", it.Line)
		}
		cell, err := decodeLayoutCell(it.Line, it.Scalar)
		if err != nil {
			return row, err
		}
		row.Cells = append(row.Cells, cell)
	}
	return row, nil
}

// oracleEnsureData returns the named data definition, creating an empty one if
// needed — flows may mention sinks that have no explicit D entry.
func (f *File) oracleEnsureData(name string, line int) *DataDef {
	if d, ok := f.Data[name]; ok {
		return d
	}
	return f.AddData(&DataDef{Name: name, Line: line})
}

// oracleParseRefs parses one reference, or several as (a, b).
func oracleParseRefs(s string) ([]Ref, error) {
	parts := []string{s}
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		parts = oracleSplitTopLevel(s[1:len(s)-1], ',')
	}
	refs := make([]Ref, 0, len(parts))
	for _, part := range parts {
		r, err := ParseRef(part)
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// oracleParsePipeline parses "D.a | T.x | T.y" or "(D.a, D.b) | T.join".
func oracleParsePipeline(s string) (*Pipeline, error) {
	parts := oracleSplitTopLevel(s, '|')
	if len(parts) == 0 {
		return nil, fmt.Errorf("empty pipeline")
	}
	inputs, err := oracleParseRefs(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, err
	}
	p := &Pipeline{Inputs: inputs}
	for _, in := range p.Inputs {
		if in.Section != "D" {
			return nil, fmt.Errorf("pipeline input %s is not a data object", in)
		}
	}
	for _, part := range parts[1:] {
		r, err := ParseRef(part)
		if err != nil {
			return nil, err
		}
		if r.Section != "T" {
			return nil, fmt.Errorf("pipeline stage %s is not a task", r)
		}
		p.Tasks = append(p.Tasks, r)
	}
	return p, nil
}

// Bench-shaped flows: serve_refresh's, serve_hot's and batch_join's
// dashboards as the benchmark writes them (serve_refresh's with its
// minimum quantity 2); author_durable's is authoringFlow.
const refreshShapedFlow = `D:
  sales: [region, product, channel, amount, qty]

D.sales:
  source: data:sales.csv
  format: csv

F:
  D.scored: D.sales | T.keep | T.revenue
  +D.by_region: D.scored | T.sum_region
  D.by_product: D.scored | T.sum_product
  +D.top_products: D.by_product | T.top

T:
  keep:
    type: filter_by
    filter_expression: qty > 2
  revenue:
    type: map
    operator: expr
    expression: amount * qty
    output: revenue
  sum_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: revenue
        out_field: total
  sum_product:
    type: groupby
    groupby: [product]
    aggregates:
      - operator: sum
        apply_on: revenue
        out_field: total
  top:
    type: topn
    orderby_column: [total DESC]
    limit: 10

W:
  regions:
    type: BarChart
    source: D.by_region
    x: region
    y: total
  share:
    type: Pie
    source: D.by_region
    text: region
    size: total
  leaders:
    type: Grid
    source: D.top_products

L:
  description: Sales refresh
  rows:
    - [span6: W.regions, span6: W.share]
    - [span12: W.leaders]
`

const hotShapedFlow = `D:
  sales: [region, product, amount]

D.sales:
  source: data:sales.csv
  format: csv

F:
  +D.by_region: D.sales | T.sum_region
  +D.by_region_product: D.sales | T.sum_region_product

T:
  sum_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  sum_region_product:
    type: groupby
    groupby: [region, product]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  pick:
    type: filter_by
    filter_by: [region]
    filter_source: W.picker
    filter_val: [text]
  per_product:
    type: groupby
    groupby: [product]
    aggregates:
      - operator: sum
        apply_on: total
        out_field: total

W:
  picker:
    type: List
    source: D.by_region
    text: region
  detail:
    type: Grid
    source: D.by_region_product | T.pick | T.per_product
  chart:
    type: BarChart
    source: D.by_region_product | T.pick | T.per_product
    x: product
    y: total

L:
  description: Sales by region
  rows:
    - [span3: W.picker, span9: W.chart]
    - [span12: W.detail]
`

const joinShapedFlow = `D:
  facts: [project, year, noOfBugs, noOfCheckins, noOfEmailsTotal,
    noOfContributors, noOfReleases]
  project_meta: [project, technology]

D.facts:
  source: mem:facts.sbin
  format: sbin

D.project_meta:
  source: mem:meta.sbin
  format: sbin

F:
  D.activity: D.facts | T.weight
  D.joined: (D.activity, D.project_meta) | T.join_meta | T.recent
  +D.by_project: D.joined | T.sum_project | T.top_projects
  +D.by_tech: D.joined | T.sum_tech | T.order_tech
  +D.by_year: D.joined | T.sum_year
  +D.ranked: D.joined | T.latest | T.order_rows | T.first_rows

T:
  weight:
    type: map
    operator: expr
    expression: noOfCheckins * 2 + noOfBugs + noOfContributors * 5 + noOfReleases * 20
    output: total_wt
  join_meta:
    type: join
    left: activity by project
    right: project_meta by project
    join_condition: inner
    project:
      activity_project: project
      activity_year: year
      project_meta_technology: technology
      activity_total_wt: total_wt
      activity_noOfCheckins: noOfCheckins
      activity_noOfBugs: noOfBugs
      activity_noOfReleases: noOfReleases
  recent:
    type: filter_by
    filter_expression: year >= 2008
  sum_project:
    type: groupby
    groupby: [project]
    aggregates:
      - operator: sum
        apply_on: total_wt
        out_field: total
  sum_tech:
    type: groupby
    groupby: [technology]
    aggregates:
      - operator: sum
        apply_on: total_wt
        out_field: total
  sum_year:
    type: groupby
    groupby: [year]
    aggregates:
      - operator: sum
        apply_on: total_wt
        out_field: total
  top_projects:
    type: topn
    orderby_column: [total DESC]
    limit: 20
  order_tech:
    type: sort
    orderby_column: [total DESC]
  latest:
    type: filter_by
    filter_expression: year >= 2013
  order_rows:
    type: sort
    orderby_column: [total_wt DESC]
  first_rows:
    type: limit
    limit: 50

W:
  projects:
    type: Grid
    source: D.by_project
  technologies:
    type: BarChart
    source: D.by_tech
    x: technology
    y: total
  years:
    type: LineChart
    source: D.by_year
    x: year
    y: total
  busiest:
    type: Grid
    source: D.ranked

L:
  description: Project activity
  rows:
    - [span6: W.technologies, span6: W.years]
    - [span6: W.projects, span6: W.busiest]
`

// oracleInputs are the flows TestParseMatchesOracle compares: the fuzz
// seeds, every flow literal in the examples and the engine's differential
// suite, the quickstart flow file, the chain flows and the bench-shaped
// flows.
func oracleInputs(t *testing.T) []string {
	t.Helper()
	examples, _ := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	suite, _ := filepath.Glob(filepath.Join("..", "engine", "enginetest", "*_test.go"))
	if len(examples) != 4 || len(suite) == 0 {
		t.Fatalf("found %d examples and %d differential suite files", len(examples), len(suite))
	}
	inputs := append([]string{chainFlow(9), chainFlow(40), authoringFlow, refreshShapedFlow, hotShapedFlow, joinShapedFlow}, fuzzSeeds...)
	inputs = append(inputs, canonicalEdges...)
	for _, p := range append(examples, suite...) {
		inputs = append(inputs, goStrings(t, p)...)
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "dashboard.flow"))
	if err != nil {
		t.Fatal(err)
	}
	return append(inputs, string(b))
}

// checkMatchesOracle parses src with Parse and with the oracle and
// requires equal Files or the same error text. It reports whether src
// parsed.
func checkMatchesOracle(t *testing.T, src string) bool {
	t.Helper()
	got, err := Parse("oracle", src)
	want, wantErr := oracleParse("oracle", src)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("input %q\nerror %v, oracle's %v", src, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q\nparsed to\n%s\noracle's\n%s", src, got, want)
	}
	return err == nil
}

func TestParseMatchesOracle(t *testing.T) {
	inputs := oracleInputs(t)
	parsed := 0
	for _, src := range inputs {
		if checkMatchesOracle(t, src) {
			parsed++
		}
	}
	t.Logf("compared %d inputs, %d of them parse", len(inputs), parsed)
	if parsed < 60 {
		t.Fatalf("only %d of %d inputs parse, want at least 60", parsed, len(inputs))
	}
}

// FuzzParseMatchesOracle is TestParseMatchesOracle under mutation.
func FuzzParseMatchesOracle(f *testing.F) {
	for _, s := range append([]string{authoringFlow, joinShapedFlow}, fuzzSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) { checkMatchesOracle(t, src) })
}
