package connector

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

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
// Decoding is one pass over one string copy of the payload: csvScanner
// tokenizes it in place (a field is a substring of that copy), each field
// is typed by value.Parse into a reused scratch row, the pushed predicate
// sees that row, and kept rows append straight into column vectors. No
// row, no record and no per-cell object is allocated. A plain string
// column's cells alias the copy, a dictionary-coded column holds clones
// (colstore.Builder): only a high-cardinality column keeps the text alive,
// and only when at least half the records were kept — under a predicate
// that drops more, the kept cells are moved off the text at the end.
type csvFormat struct{ sep rune }

// csvReserveRows is how many rows a decode must have kept before it
// reserves its vectors from them, and how often it revises the reserve.
const csvReserveRows = 1024

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
	r := csvScanner{src: string(payload), comma: f.sep}
	if r.comma == 0 {
		r.comma = ','
		if sep := d.Prop("separator"); sep != "" {
			rs := []rune(sep)
			r.comma = rs[0]
		}
	}
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
	if c := r.comma; c == 0 || c == '"' || c == '\r' || c == '\n' || !utf8.ValidRune(c) || c == utf8.RuneError {
		// encoding/csv's unexported error of the same text.
		return nil, res, errors.New("csv: invalid field or comment delimiter")
	}
	b := colstore.NewBuilder(s)
	binding := make([]int, s.Len()) // schema column -> record index
	for i := range binding {
		binding[i] = i
	}
	row := make(table.Row, s.Len())
	kept, rows := 0, 0
	for first := true; ; first = false {
		rec, err := r.read()
		if err == io.EOF {
			if kept < rows/2 {
				// Most of the text was dropped: no kept cell may pin it.
				b.OwnStrings()
			}
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
					_, err = r.read()
				}
				if err != io.EOF {
					return nil, res, err
				}
				return nil, res, fmt.Errorf("header has no column for %q", missing)
			}
			continue
		}
		rows++
		for i, j := range binding {
			if skip[i] || j >= len(rec) {
				row[i] = value.VNull
			} else {
				row[i] = value.Parse(rec[j])
			}
		}
		if pred == nil || pred(row).Truthy() {
			b.Append(row)
			if kept++; kept%csvReserveRows == 0 {
				// Rows kept per byte consumed, over the whole payload,
				// plus 1/32 so that a steady payload never regrows. Rows
				// kept are rows read at most, so a predicate never reserves
				// more than the same decode without one; where the kept
				// rows thin out later in the payload, Table trims.
				est := int64(kept) * int64(len(r.src)) / int64(r.off)
				b.Reserve(int(est + est/32))
			}
		}
	}
}

// csvScanner splits delimiter-separated text into records without
// copying it: a port of encoding/csv's Reader.readRecord (with
// TrimLeadingSpace, any field count, no comments, no lazy quotes) from a
// buffered reader to one in-memory string. It accepts and rejects exactly
// what that reader does, with the same *csv.ParseError — FuzzCSVRecords
// holds the two together. A field is a substring of src; only a quoted
// field with an escaped quote or a line end in it is assembled in a
// buffer of its own. A line is handled without its terminator ("\n" or
// "\r\n", either of which a quoted field keeps as "\n"): nl says it had one.
type csvScanner struct {
	src     string
	comma   rune
	off     int      // bytes of src consumed
	numLine int      // lines read, counting the empty read at the end
	rec     []string // the current record, reused by the next read
}

// readLine returns the next line and 1 if a line feed ended it, 0 at the
// end of the text, where a trailing "\r" is dropped as well.
func (r *csvScanner) readLine() (line string, nl int) {
	line = r.src[r.off:]
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line, nl = line[:i], 1
	}
	r.numLine++
	r.off += len(line) + nl
	return strings.TrimSuffix(line, "\r"), nl
}

// read returns the next record, io.EOF after the last. The slice and a
// header's trimmed names are good until the next call.
func (r *csvScanner) read() ([]string, error) {
	line, nl := r.readLine()
	for line == "" { // skip empty lines
		if r.off == len(r.src) && nl == 0 {
			return nil, io.EOF
		}
		line, nl = r.readLine()
	}
	commaLen := utf8.RuneLen(r.comma)
	recLine := r.numLine
	posLine, col := r.numLine, 1 // where line[0] is: 1-based, col in bytes
	r.rec = r.rec[:0]
	for {
		trimmed := strings.TrimLeftFunc(line, unicode.IsSpace)
		col += len(line) - len(trimmed)
		line = trimmed
		if line == "" || line[0] != '"' {
			// Unquoted field.
			i := strings.IndexRune(line, r.comma)
			field := line
			if i >= 0 {
				field = line[:i]
			}
			if j := strings.IndexByte(field, '"'); j >= 0 {
				return nil, &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col + j, Err: csv.ErrBareQuote}
			}
			r.rec = append(r.rec, field)
			if i < 0 {
				return r.rec, nil
			}
			line = line[i+commaLen:]
			col += i + commaLen
			continue
		}
		// Quoted field.
		line = line[1:]
		col++
		var spill strings.Builder // the field so far, once it cannot be a substring
		for {
			i := strings.IndexByte(line, '"')
			if i < 0 {
				if len(line)+nl == 0 {
					return nil, &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
				}
				// The field runs over the line end. Grow doubles the
				// buffer; WriteString alone would grow it by quarters.
				spill.Grow(len(line) + nl)
				spill.WriteString(line)
				spill.WriteString("\n"[:nl])
				col += len(line) + nl
				if line, nl = r.readLine(); len(line)+nl > 0 {
					posLine++
					col = 1
				}
				continue
			}
			field := line[:i]
			line = line[i+1:]
			col += i + 1
			c, _ := utf8.DecodeRuneInString(line)
			if c == '"' {
				// An escaped quote.
				spill.WriteString(field)
				spill.WriteByte('"')
				line = line[1:]
				col++
				continue
			}
			if c != r.comma && line != "" {
				return nil, &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col - 1, Err: csv.ErrQuote}
			}
			if spill.Len() > 0 {
				spill.WriteString(field)
				field = spill.String()
			}
			r.rec = append(r.rec, field)
			if line == "" {
				return r.rec, nil
			}
			line = line[commaLen:]
			col += commaLen
			break
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
