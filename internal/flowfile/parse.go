package flowfile

import (
	"fmt"
	"strconv"
	"strings"

	"shareinsights/internal/schema"
)

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
func Parse(name, src string) (*File, error) {
	root, err := parseSource(src)
	if err != nil {
		return nil, err
	}
	f := NewFile(name)
	for _, e := range root.Entries {
		key, node := e.Key, e.Value
		switch {
		case key == "D":
			if err := f.decodeDataSection(node); err != nil {
				return nil, err
			}
		case key == "F":
			if err := f.decodeFlowSection(node); err != nil {
				return nil, err
			}
		case key == "T":
			if err := f.decodeTaskSection(node); err != nil {
				return nil, err
			}
		case key == "W":
			if err := f.decodeWidgetSection(node); err != nil {
				return nil, err
			}
		case key == "L":
			if err := f.decodeLayoutSection(node); err != nil {
				return nil, err
			}
		case strings.HasPrefix(key, "D.") || strings.HasPrefix(key, "+D."):
			if err := f.decodeTopLevelData(key, node); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("line %d: unknown section %q (want D, F, T, W, L or D.<name>)", node.Line, key)
		}
	}
	return f, nil
}

// parseSource runs the scanner and generic tree builder. Duplicate
// section keys (a file with two F: blocks) are merged.
func parseSource(src string) (*Node, error) {
	lines, err := scan(src)
	if err != nil {
		return nil, err
	}
	// The generic tree rejects duplicate keys; flow files legitimately
	// repeat section headers, so merge duplicates at the top level by
	// suffixing and regrouping afterwards would complicate ordering.
	// Instead split the line stream into top-level chunks and parse each.
	root := newMap(1)
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
		sub := newMap(l.num)
		if _, err := parseBlock(chunk, 0, sub); err != nil {
			return nil, err
		}
		child := sub.Get(l.key)
		if prev := root.Get(l.key); prev != nil && (l.key == "D" || l.key == "F" || l.key == "T" || l.key == "W") {
			if err := mergeNodes(prev, child); err != nil {
				return nil, err
			}
			continue
		}
		if err := root.set(l.key, child); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// mergeNodes appends the entries of src into dst (both maps or lists).
func mergeNodes(dst, src *Node) error {
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

func (f *File) decodeDataSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: D section must be a map of data objects", n.Line)
	}
	for _, en := range n.Entries {
		name, entry := en.Key, en.Value
		d := f.EnsureData(strings.TrimPrefix(name, "D."), entry.Line)
		switch entry.Kind {
		case ListNode:
			s, err := decodeSchema(entry)
			if err != nil {
				return fmt.Errorf("line %d: data %q: %w", entry.Line, name, err)
			}
			d.Schema = s
		case MapNode:
			if err := decodeDataDetails(d, entry); err != nil {
				return fmt.Errorf("line %d: data %q: %w", entry.Line, name, err)
			}
		case ScalarNode:
			// "D.out: D.in | T.x" written inside the D section is a flow.
			if strings.Contains(entry.Scalar, "|") || strings.HasPrefix(entry.Scalar, "D.") {
				if err := f.addFlowEntry(name, entry); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("line %d: data %q: expected schema list or detail block", entry.Line, name)
		}
	}
	return nil
}

func decodeSchema(n *Node) (*schema.Schema, error) {
	cols := make([]schema.Column, 0, len(n.Items))
	for _, it := range n.Items {
		if it.Kind != ScalarNode {
			return nil, fmt.Errorf("schema entries must be column names or path => column mappings")
		}
		text := it.Scalar
		if i := strings.Index(text, "=>"); i >= 0 {
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

func decodeDataDetails(d *DataDef, n *Node) error {
	for _, en := range n.Entries {
		key, v := en.Key, en.Value
		switch key {
		case "endpoint":
			d.Endpoint = v.Kind == ScalarNode && strings.EqualFold(v.Scalar, "true")
		case "publish":
			d.Publish = v.Scalar
		case "schema":
			if v.Kind != ListNode {
				return fmt.Errorf("line %d: schema must be a list", v.Line)
			}
			s, err := decodeSchema(v)
			if err != nil {
				return err
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
						return fmt.Errorf("line %d: property %s.%s must be scalar", sv.Line, key, sub)
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
	return nil
}

func (f *File) decodeTopLevelData(key string, n *Node) error {
	name := strings.TrimPrefix(strings.TrimPrefix(key, "+"), "D.")
	d := f.EnsureData(name, n.Line)
	if strings.HasPrefix(key, "+") {
		d.Endpoint = true
	}
	switch n.Kind {
	case MapNode:
		return decodeDataDetails(d, n)
	case ScalarNode:
		// "+D.name:" followed by a bare pipeline (Figure 9).
		return f.addFlowEntry(key, n)
	case ListNode:
		s, err := decodeSchema(n)
		if err != nil {
			return err
		}
		d.Schema = s
	}
	return nil
}

// ---------------------------------------------------------------------
// F section

func (f *File) decodeFlowSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: F section must be a map of flows", n.Line)
	}
	for _, en := range n.Entries {
		key, entry := en.Key, en.Value
		switch entry.Kind {
		case ScalarNode:
			if err := f.addFlowEntry(key, entry); err != nil {
				return err
			}
		case MapNode:
			// Data-detail blocks may appear inside F (Figure 19 publishes
			// a sink right next to its flow).
			if !strings.HasPrefix(key, "D.") && !strings.HasPrefix(key, "+D.") {
				return fmt.Errorf("line %d: flow %q must map to a pipeline", entry.Line, key)
			}
			if err := f.decodeTopLevelData(key, entry); err != nil {
				return err
			}
		default:
			return fmt.Errorf("line %d: flow %q must map to a pipeline", entry.Line, key)
		}
	}
	return nil
}

// addFlowEntry parses one flow: key is "D.out", "+D.out" or
// "(D.a, D.b)"; val is the pipeline expression.
func (f *File) addFlowEntry(key string, val *Node) error {
	endpoint := false
	if strings.HasPrefix(key, "+") {
		endpoint = true
		key = strings.TrimSpace(key[1:])
	}
	var outs []Ref
	if strings.HasPrefix(key, "(") && strings.HasSuffix(key, ")") {
		for _, part := range splitTopLevel(key[1:len(key)-1], ',') {
			r, err := ParseRef(part)
			if err != nil {
				return fmt.Errorf("line %d: flow output: %w", val.Line, err)
			}
			outs = append(outs, r)
		}
	} else {
		r, err := ParseRef(key)
		if err != nil {
			return fmt.Errorf("line %d: flow output: %w", val.Line, err)
		}
		outs = []Ref{r}
	}
	for _, o := range outs {
		if o.Section != "D" {
			return fmt.Errorf("line %d: flow output %s is not a data object", val.Line, o)
		}
		d := f.EnsureData(o.Name, val.Line)
		if endpoint {
			d.Endpoint = true
		}
	}
	p, err := ParsePipeline(val.Scalar)
	if err != nil {
		return fmt.Errorf("line %d: flow %s: %w", val.Line, key, err)
	}
	for _, in := range p.Inputs {
		f.EnsureData(in.Name, val.Line)
	}
	f.Flows = append(f.Flows, &Flow{Outputs: outs, Pipeline: p, Line: val.Line})
	return nil
}

// ---------------------------------------------------------------------
// T section

func (f *File) decodeTaskSection(n *Node) error {
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

func (f *File) decodeWidgetSection(n *Node) error {
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
				p, err := ParsePipeline(src.Scalar)
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

func (f *File) decodeLayoutSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: L section must be a property block", n.Line)
	}
	l := &LayoutDef{Description: n.Str("description"), Line: n.Line}
	rows := n.Get("rows")
	if rows != nil {
		if rows.Kind != ListNode {
			return fmt.Errorf("line %d: layout rows must be a list", rows.Line)
		}
		for _, rowNode := range rows.Items {
			row, err := DecodeLayoutRow(rowNode)
			if err != nil {
				return err
			}
			l.Rows = append(l.Rows, row)
		}
	}
	f.Layout = l
	return nil
}

// DecodeLayoutRow decodes one layout row node: a list of
// "spanN: W.widget" cells. Widget sub-layouts (type Layout in the W
// section) reuse it.
func DecodeLayoutRow(n *Node) (LayoutRow, error) {
	var row LayoutRow
	if n.Kind != ListNode {
		// A single-cell row may be written without brackets.
		if n.Kind == ScalarNode {
			cell, err := decodeLayoutCell(n.Line, n.Scalar)
			if err != nil {
				return row, err
			}
			row.Cells = append(row.Cells, cell)
			return row, nil
		}
		return row, fmt.Errorf("line %d: layout row must be a list of cells", n.Line)
	}
	for _, it := range n.Items {
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

func decodeLayoutCell(lineNum int, s string) (LayoutCell, error) {
	key, val, ok := splitKey(s)
	if !ok || !strings.HasPrefix(key, "span") {
		return LayoutCell{}, fmt.Errorf("line %d: layout cell %q: want span<N>: W.<widget>", lineNum, s)
	}
	span, err := strconv.Atoi(strings.TrimPrefix(key, "span"))
	if err != nil || span < 1 || span > 12 {
		return LayoutCell{}, fmt.Errorf("line %d: layout cell %q: span must be 1..12", lineNum, s)
	}
	ref, err := ParseRef(val)
	if err != nil || ref.Section != "W" {
		return LayoutCell{}, fmt.Errorf("line %d: layout cell %q must reference a widget", lineNum, s)
	}
	return LayoutCell{Span: span, Widget: ref.Name}, nil
}
