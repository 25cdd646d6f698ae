package connector

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
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
// Decoding is one pass over the payload itself: csvScanner tokenizes it in
// place (a field is a slice of the payload), value.Infer types each
// field, and kept rows append straight into column vectors, a text field
// as its bytes, which the builder copies into the column that keeps it
// (colstore.Builder). No row, no record, no per-cell object and no copy
// of the payload is allocated, and the table shares no byte with the
// payload. Offered a Push, the builder streams (colstore.Builder.Stream):
// the same loop hands its rows on a batch at a time and builds no table.
type csvFormat struct{ sep rune }

// csvReserveRows is how many rows a decode must have appended before it
// reserves its vectors from them, and how often it revises the reserve.
const csvReserveRows = 1024

func (f *csvFormat) Decode(d *flowfile.DataDef, s *schema.Schema, payload []byte) (*table.Table, error) {
	t, _, err := f.DecodePushdown(d, s, payload, Pushdown{})
	return t, err
}

// DecodePushdown implements FormatPushdown: skipped columns decode as
// nulls without parsing their fields, and a Push takes the rows.
func (f *csvFormat) DecodePushdown(d *flowfile.DataDef, s *schema.Schema, payload []byte, pd Pushdown) (*table.Table, PushdownResult, error) {
	r := csvScanner{src: payload, comma: f.sep}
	if r.comma == 0 {
		r.comma = ','
		if sep := d.Prop("separator"); sep != "" {
			rs := []rune(sep)
			r.comma = rs[0]
		}
	}
	skip, skipped := skipMask(s, pd.SkipColumns)
	res := PushdownResult{SkippedColumns: skipped, Streamed: pd.Push != nil}
	if c := r.comma; c == 0 || c == '"' || c == '\r' || c == '\n' || !utf8.ValidRune(c) || c == utf8.RuneError {
		// encoding/csv's unexported error of the same text.
		return nil, res, errors.New("csv: invalid field or comment delimiter")
	}
	b := colstore.NewBuilder(s)
	if pd.Push != nil {
		b.Stream(pd.Push)
	}
	binding := make([]int, s.Len()) // schema column -> record index
	for i := range binding {
		binding[i] = i
	}
	rows := 0
	for first := true; ; first = false {
		rec, err := r.read()
		if err == io.EOF {
			t, err := b.Done()
			return t, res, err
		}
		if err != nil {
			return nil, res, err
		}
		if first && isHeader(rec, s) {
			names := make([]string, len(rec))
			for i, field := range rec {
				names[i] = string(bytes.TrimSpace(field))
			}
			var missing string
			if binding, missing = bindByName(s, names); missing != "" {
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
		rows, err = appendRecord(b, binding, skip, rec, rows, r.off, len(r.src))
		if r.spill = r.spill[:0]; err != nil {
			return nil, res, err
		}
	}
}

// appendRecord appends rec to b as the row binding maps to its fields, a
// skipped column's cell null, and returns rows, the rows appended, plus
// one, and EndRow's error. Every csvReserveRows rows it reserves the
// vectors from the rows per byte consumed over the whole payload, to
// off of size, plus 1/32 so that a steady payload never regrows; where
// the rows thin out later in the payload, Table trims.
func appendRecord(b *colstore.Builder, binding []int, skip []bool, rec [][]byte, rows, off, size int) (int, error) {
	for i, j := range binding {
		if skip[i] || j >= len(rec) {
			b.AppendCell(i, value.VNull)
		} else if cell, typed := value.Infer(rec[j]); typed {
			b.AppendCell(i, cell)
		} else {
			b.AppendString(i, rec[j])
		}
	}
	if rows++; rows%csvReserveRows == 0 {
		est := int64(rows) * int64(size) / int64(off)
		b.Reserve(int(est + est/32))
	}
	return rows, b.EndRow()
}

// csvScanner splits delimiter-separated text into records without
// copying it: a port of encoding/csv's Reader.readRecord (with
// TrimLeadingSpace, any field count, no comments, no lazy quotes) from a
// buffered reader to the payload in memory. It accepts and rejects
// exactly what that reader does, with the same *csv.ParseError —
// FuzzCSVRecords holds the two together — except that a field's leading
// white space never includes the delimiter itself, which encoding/csv
// trims as space and so loses an empty field between two tabs. A field is
// a slice of src; only a quoted field with an escaped quote or a line end
// in it is assembled, in a spill buffer the whole decode shares. A line is
// handled without its terminator ("\n" or "\r\n", either of which a quoted
// field keeps as "\n"): nl says it had one.
type csvScanner struct {
	src     []byte
	comma   rune
	off     int      // bytes of src consumed
	numLine int      // lines read, counting the empty read at the end
	rec     [][]byte // the current record, reused by the next read
	spill   []byte   // the record's assembled quoted fields, likewise
}

// readLine returns the next line and 1 if a line feed ended it, 0 at the
// end of the text, where a trailing "\r" is dropped as well.
func (r *csvScanner) readLine() (line []byte, nl int) {
	line = r.src[r.off:]
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, nl = line[:i], 1
	}
	r.numLine++
	r.off += len(line) + nl
	return bytes.TrimSuffix(line, []byte("\r")), nl
}

// spillAppend appends p and then tail to the spill buffer, doubling it
// when full: append alone grows a large buffer by a quarter.
func (r *csvScanner) spillAppend(p []byte, tail string) {
	if n := len(p) + len(tail); cap(r.spill)-len(r.spill) < n {
		r.spill = append(make([]byte, 0, 2*len(r.spill)+n), r.spill...)
	}
	r.spill = append(append(r.spill, p...), tail...)
}

// read returns the next record, io.EOF after the last. The record is
// good until the next call, and its fields until the caller empties the
// spill buffer.
func (r *csvScanner) read() ([][]byte, error) {
	line, nl := r.readLine()
	for len(line) == 0 { // skip empty lines
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
		for len(line) > 0 && (line[0] <= ' ' || line[0] >= utf8.RuneSelf) {
			// Leading white space, other than the delimiter.
			c, n := utf8.DecodeRune(line)
			if c == r.comma || !unicode.IsSpace(c) {
				break
			}
			line, col = line[n:], col+n
		}
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field.
			i := bytes.IndexRune(line, r.comma)
			field := line
			if i >= 0 {
				field = line[:i]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
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
		start := len(r.spill) // the field spills from here once it cannot be a slice of src
		for {
			i := bytes.IndexByte(line, '"')
			if i < 0 {
				if len(line)+nl == 0 {
					return nil, &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
				}
				// The field runs over the line end.
				r.spillAppend(line, "\n"[:nl])
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
			c, _ := utf8.DecodeRune(line)
			if c == '"' {
				// An escaped quote.
				r.spillAppend(field, `"`)
				line = line[1:]
				col++
				continue
			}
			if c != r.comma && len(line) > 0 {
				return nil, &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col - 1, Err: csv.ErrQuote}
			}
			if len(r.spill) > start {
				r.spillAppend(field, "")
				field = r.spill[start:]
			}
			r.rec = append(r.rec, field)
			if len(line) == 0 {
				return r.rec, nil
			}
			line = line[commaLen:]
			col += commaLen
			break
		}
	}
}

// isHeader reports whether the record names the schema's columns.
func isHeader(rec [][]byte, s *schema.Schema) bool {
	matched := 0
	for _, field := range rec {
		field = bytes.TrimSpace(field)
		if slices.ContainsFunc(s.Columns(), func(c schema.Column) bool {
			return string(field) == c.Name || string(field) == c.Source()
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
	for r := 0; r < t.Len(); r++ {
		for c := range rec {
			rec[c] = t.At(r, c).String()
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
// objects with lines=true) into column vectors (colstore.Builder).
// Columns resolve through their payload paths (the `=>` mappings of
// Figure 6: "The => notation maps JSON paths in the payload to column
// names").
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
	b := colstore.NewBuilder(s)
	b.Reserve(len(docs))
	row := make([]value.V, s.Len())
	for _, doc := range docs {
		for i, col := range s.Columns() {
			row[i] = value.FromAny(lookupPath(doc, col.Source()))
		}
		b.Append(row)
	}
	return b.Table(), nil
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

// EncodeJSON renders a table as a JSON array of objects, reading cells
// through At into one buffer. Its bytes, and its error for a NaN or
// infinite float, are json.Marshal's for the rows as []map[string]any
// (a time cell as its display string).
func EncodeJSON(t *table.Table) ([]byte, error) {
	names := t.Schema().Names()
	keys := make([]int, len(names)) // column indices in key order
	for c := range keys {
		keys[c] = c
	}
	slices.SortFunc(keys, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	buf := append(make([]byte, 0, 2+t.Len()*(2+16*len(names))), '[')
	for r := 0; r < t.Len(); r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		for k, c := range keys {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = append(appendJSONString(buf, names[c]), ':')
			switch v := t.At(r, c); v.Kind() {
			case value.Null:
				buf = append(buf, "null"...)
			case value.Bool:
				buf = strconv.AppendBool(buf, v.Bool())
			case value.Int:
				buf = strconv.AppendInt(buf, v.Int(), 10)
			case value.Float:
				f := v.Float()
				if math.IsInf(f, 0) || math.IsNaN(f) {
					return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
				}
				buf = appendJSONFloat(buf, f)
			default:
				buf = appendJSONString(buf, v.Str())
			}
		}
		buf = append(buf, '}')
	}
	return append(buf, ']'), nil
}

// appendJSONFloat appends a finite float as encoding/json writes one: like
// %g, but with exponents only below 1e-6 and from 1e21, and unpadded.
func appendJSONFloat(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		return append(buf[:n-2], buf[n-1]) // e-07 → e-7
	}
	return buf
}

// appendJSONString appends s quoted as encoding/json quotes a string
// with HTML escaping on: ", \ and control characters escaped, <, > and &
// as \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028 / U+2029
// escaped.
func appendJSONString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			if e := strings.IndexByte("\"\\\b\f\n\r\t", b); e >= 0 {
				buf = append(buf, '\\', "\"\\bfnrt"[e])
			} else {
				buf = append(buf, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(append(buf, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			buf = append(append(buf, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(buf, s[start:]...), '"')
}

// ---------------------------------------------------------------------
// XML

// xmlFormat decodes repeated record elements into column vectors
// (colstore.Builder). The `record_tag` property names the repeating
// element (default "record" / "row" / the first repeating child).
// Column paths address nested elements with dots.
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
	b := colstore.NewBuilder(s)
	b.Reserve(len(records))
	row := make([]value.V, s.Len())
	for _, rec := range records {
		for i, col := range s.Columns() {
			row[i] = value.Parse(rec.path(col.Source()))
		}
		b.Append(row)
	}
	return b.Table(), nil
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
