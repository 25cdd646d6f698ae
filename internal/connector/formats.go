package connector

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// ---------------------------------------------------------------------
// CSV / TSV

// csvFormat decodes delimiter-separated text. Columns bind to the
// declared schema by position; when the first record matches the schema
// column names (or their payload paths) it is treated as a header and
// binding switches to by-name.
//
// Decoding is one pass: encoding/csv tokenizes (ReuseRecord: one string
// per record, its fields re-sliced from it), each field is typed by
// value.Parse into a reused scratch row, the pushed predicate sees that
// row, and kept rows append straight into column vectors. No row and no
// per-cell object is allocated; string cells alias their record string.
type csvFormat struct{ sep rune }

func (f *csvFormat) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	t, _, err := f.DecodePushdown(d, s, payload, Pushdown{})
	return t, err
}

// DecodePushdown implements FormatPushdown: skipped columns decode as
// nulls without parsing their fields, and a pushed predicate filters
// rows as they decode. Columns the predicate reads keep decoding even
// when listed as skippable, and a predicate that does not bind against
// the declared schema is declined — never an error, the consumer
// pipeline re-applies it anyway.
func (f *csvFormat) DecodePushdown(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown) (*table.Table, PushdownResult, error) {
	r := csv.NewReader(bytes.NewReader(payload))
	r.Comma = f.sep
	if r.Comma == 0 {
		r.Comma = ','
		if sep := d.Prop("separator"); sep != "" {
			rs := []rune(sep)
			r.Comma = rs[0]
		}
	}
	r.FieldsPerRecord = -1
	r.TrimLeadingSpace = true
	r.ReuseRecord = true
	// Negotiate the pushdown: a predicate that binds filters while
	// decoding; requested skip columns decode as nulls unless the
	// predicate reads them.
	var res PushdownResult
	pred, need := compilePushdownPredicate(pd.Predicate, s)
	res.PredicateApplied = pred != nil
	skip := make([]bool, s.Len())
	for _, c := range pd.SkipColumns {
		if i := s.Index(c); i >= 0 && !slices.Contains(need, c) {
			skip[i] = true
			res.SkippedColumns = append(res.SkippedColumns, c)
		}
	}
	b := colstore.NewBuilder(s)
	binding := make([]int, s.Len()) // schema column -> record index
	for i := range binding {
		binding[i] = i
	}
	row := make(table.Row, s.Len())
	for first := true; ; first = false {
		rec, err := r.Read()
		if err == io.EOF {
			return b.Table(), res, nil
		}
		if err != nil {
			return nil, res, err
		}
		if first && isHeader(rec, s) {
			for i, field := range rec {
				rec[i] = strings.TrimSpace(field)
			}
			var missing string
			if binding, missing = bindByName(s, rec); missing != "" {
				// A malformed record anywhere in the payload outranks
				// the header complaint.
				for err == nil {
					_, err = r.Read()
				}
				if err != io.EOF {
					return nil, res, err
				}
				return nil, res, fmt.Errorf("header has no column for %q", missing)
			}
			continue
		}
		for i, j := range binding {
			if skip[i] || j >= len(rec) {
				row[i] = value.VNull
			} else {
				row[i] = value.Parse(rec[j])
			}
		}
		if pred == nil || pred(row).Truthy() {
			b.Append(row)
		}
	}
}

// isHeader reports whether the record names the schema's columns.
func isHeader(rec []string, s *schema.Schema) bool {
	matched := 0
	for _, field := range rec {
		field = strings.TrimSpace(field)
		if slices.ContainsFunc(s.Columns(), func(c schema.Column) bool {
			return field == c.Name || field == c.Source()
		}) {
			matched++
		}
	}
	return matched >= s.Len() || (matched > 0 && matched == len(rec))
}

// bindByName maps every schema column to the payload field that carries
// it — the field named by the column's payload path, else by its name,
// the last one when a name repeats. missing is the first column with no
// field ("" when all bound).
func bindByName(s *schema.Schema, fields []string) (binding []int, missing string) {
	last := func(name string) int {
		for j := len(fields) - 1; j >= 0; j-- {
			if fields[j] == name {
				return j
			}
		}
		return -1
	}
	binding = make([]int, s.Len())
	for i, col := range s.Columns() {
		j := last(col.Source())
		if j < 0 {
			j = last(col.Name)
		}
		if j < 0 {
			return nil, col.Source()
		}
		binding[i] = j
	}
	return binding, ""
}

// EncodeCSV renders a table as CSV with a header row — the wire form of
// the REST data API.
func EncodeCSV(t *table.Table) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(t.Schema().Names()); err != nil {
		return nil, err
	}
	rec := make([]string, t.Schema().Len())
	for _, row := range t.Rows() {
		for i, v := range row {
			rec[i] = v.String()
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

// ---------------------------------------------------------------------
// JSON / JSONL

// jsonFormat decodes a JSON array of objects (or newline-delimited
// objects with lines=true). Columns resolve through their payload paths
// (the `=>` mappings of Figure 6: "The => notation maps JSON paths in
// the payload to column names").
type jsonFormat struct{ lines bool }

func (f *jsonFormat) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	var docs []map[string]any
	if f.lines {
		dec := json.NewDecoder(bytes.NewReader(payload))
		for {
			var doc map[string]any
			if err := dec.Decode(&doc); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			docs = append(docs, doc)
		}
	} else {
		trimmed := bytes.TrimSpace(payload)
		if len(trimmed) > 0 && trimmed[0] == '{' {
			// A wrapper object: find the first array member (provider
			// APIs wrap items, e.g. Stack Exchange's {"items": [...]}).
			var wrapper map[string]any
			if err := json.Unmarshal(trimmed, &wrapper); err != nil {
				return nil, err
			}
			member := d.Prop("items")
			found := false
			for _, key := range []string{member, "items", "results", "data", "rows"} {
				if key == "" {
					continue
				}
				if arr, ok := wrapper[key].([]any); ok {
					for _, item := range arr {
						if m, ok := item.(map[string]any); ok {
							docs = append(docs, m)
						}
					}
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("json object payload has no recognizable item array (set the items property)")
			}
		} else {
			var arr []map[string]any
			if err := json.Unmarshal(trimmed, &arr); err != nil {
				return nil, err
			}
			docs = arr
		}
	}
	t := table.New(s)
	for _, doc := range docs {
		row := make(table.Row, s.Len())
		for i, col := range s.Columns() {
			row[i] = value.FromAny(lookupPath(doc, col.Source()))
		}
		t.Append(row)
	}
	return t, nil
}

// lookupPath resolves a dotted path ("user.location") in a decoded JSON
// document. Missing segments yield nil.
func lookupPath(doc map[string]any, path string) any {
	cur := any(doc)
	for _, seg := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur, ok = m[seg]
		if !ok {
			return nil
		}
	}
	return cur
}

// EncodeJSON renders a table as a JSON array of objects.
func EncodeJSON(t *table.Table) ([]byte, error) {
	names := t.Schema().Names()
	out := make([]map[string]any, 0, t.Len())
	for _, row := range t.Rows() {
		obj := make(map[string]any, len(names))
		for i, n := range names {
			obj[n] = jsonValue(row[i])
		}
		out = append(out, obj)
	}
	return json.Marshal(out)
}

func jsonValue(v value.V) any {
	switch v.Kind() {
	case value.Null:
		return nil
	case value.Bool:
		return v.Bool()
	case value.Int:
		return v.Int()
	case value.Float:
		return v.Float()
	case value.Time:
		return v.String()
	default:
		return v.Str()
	}
}

// ---------------------------------------------------------------------
// XML

// xmlFormat decodes repeated record elements. The `record_tag` property
// names the repeating element (default "record" / "row" / the first
// repeating child). Column paths address nested elements with dots.
type xmlFormat struct{}

type xmlNode struct {
	name     string
	text     string
	children []*xmlNode
}

func (f *xmlFormat) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	root, err := parseXML(payload)
	if err != nil {
		return nil, err
	}
	tag := d.Prop("record_tag")
	records := findRecords(root, tag)
	t := table.New(s)
	for _, rec := range records {
		row := make(table.Row, s.Len())
		for i, col := range s.Columns() {
			row[i] = value.Parse(rec.path(col.Source()))
		}
		t.Append(row)
	}
	return t, nil
}

func parseXML(payload []byte) (*xmlNode, error) {
	dec := xml.NewDecoder(bytes.NewReader(payload))
	root := &xmlNode{}
	stack := []*xmlNode{root}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch el := tok.(type) {
		case xml.StartElement:
			n := &xmlNode{name: el.Name.Local}
			parent := stack[len(stack)-1]
			parent.children = append(parent.children, n)
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case xml.CharData:
			stack[len(stack)-1].text += string(el)
		}
	}
	return root, nil
}

// findRecords locates the repeating record nodes.
func findRecords(root *xmlNode, tag string) []*xmlNode {
	if tag != "" {
		var out []*xmlNode
		var walk func(n *xmlNode)
		walk = func(n *xmlNode) {
			for _, c := range n.children {
				if c.name == tag {
					out = append(out, c)
				} else {
					walk(c)
				}
			}
		}
		walk(root)
		return out
	}
	// Default: the document element's repeated children.
	if len(root.children) == 1 {
		return root.children[0].children
	}
	return root.children
}

// path resolves a dotted element path under the record.
func (n *xmlNode) path(p string) string {
	cur := n
	for _, seg := range strings.Split(p, ".") {
		var next *xmlNode
		for _, c := range cur.children {
			if c.name == seg {
				next = c
				break
			}
		}
		if next == nil {
			return ""
		}
		cur = next
	}
	return strings.TrimSpace(cur.text)
}
