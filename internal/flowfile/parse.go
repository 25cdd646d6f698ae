package flowfile

import (
	"fmt"
	"slices"
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
	var p flowParser
	sections, err := p.parseSource(src)
	if err != nil {
		return nil, err
	}
	p.f = NewFile(name)
	for _, e := range sections {
		key, node := e.Key, e.Value
		if sectionOf[key] != "" && node.Kind != MapNode {
			return nil, fmt.Errorf("line %d: %s section must be a map of %s", node.Line, key, sectionOf[key])
		}
		switch {
		case key == "D" || key == "F":
			err = p.decodeEntries(node, key == "D")
		case key == "T":
			err = p.decodeTaskSection(node)
		case key == "W":
			err = p.decodeWidgetSection(node)
		case key == "L":
			err = p.f.decodeLayoutSection(node)
		case strings.HasPrefix(key, "D.") || strings.HasPrefix(key, "+D."):
			err = p.decodeData(key, node, false)
		default:
			err = fmt.Errorf("line %d: unknown section %q (want D, F, T, W, L or D.<name>)", node.Line, key)
		}
		if err != nil {
			return nil, err
		}
	}
	return p.f, nil
}

// sectionOf names what each of the sections that may repeat is a map of.
var sectionOf = map[string]string{"D": "data objects", "F": "flows", "T": "tasks", "W": "widgets"}

// parseSource runs the scanner and the tree builder and returns the
// top-level sections in order. A repeated D, F, T or W section is merged
// into the first.
func (p *flowParser) parseSource(src string) ([]MapEntry, error) {
	lines, err := p.scan(src)
	if err != nil {
		return nil, err
	}
	for len(lines) > 0 {
		l := lines[0]
		if l.indent != 0 || !l.hasKey || l.isItem {
			return nil, fmt.Errorf("line %d: expected a top-level section header", l.num)
		}
		child, rest, err := p.value(l, lines[1:])
		if err != nil {
			return nil, err
		}
		if len(rest) > 0 && rest[0].indent > 0 {
			return nil, fmt.Errorf("line %d: unexpected indent", rest[0].num)
		}
		lines = rest
		root := Node{Kind: MapNode, Entries: p.estack}
		if prev := root.Get(l.key); prev != nil && sectionOf[l.key] != "" {
			switch {
			case prev.Kind != child.Kind:
				return nil, fmt.Errorf("line %d: section re-opened with different shape", child.Line)
			case child.Kind == ScalarNode:
				return nil, fmt.Errorf("line %d: cannot merge scalar sections", child.Line)
			}
			prev.Entries, prev.Items = append(prev.Entries, child.Entries...), append(prev.Items, child.Items...)
			continue
		}
		p.estack = append(p.estack, MapEntry{l.key, child})
	}
	return p.estack, nil
}

// ---------------------------------------------------------------------
// D and F sections

// decodeEntries decodes the D section (inD) or the F section, entry by
// entry.
func (p *flowParser) decodeEntries(n *Node, inD bool) error {
	p.reserve(n.Entries, false)
	for _, en := range n.Entries {
		key, entry := en.Key, en.Value
		var err error
		switch {
		case inD:
			err = p.decodeData(key, entry, true)
		case entry.Kind == ScalarNode:
			err = p.addFlowEntry(key, entry)
		case entry.Kind == MapNode && (strings.HasPrefix(key, "D.") || strings.HasPrefix(key, "+D.")):
			// Data-detail blocks may appear inside F (Figure 19 publishes
			// a sink right next to its flow).
			err = p.decodeData(key, entry, false)
		default:
			err = fmt.Errorf("line %d: flow %q must map to a pipeline", entry.Line, key)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// decodeData decodes the data object key, an entry of the D section when
// inD and else a D.name or +D.name block, from its schema list, its
// detail block or (a scalar) the flow that produces it; an error names it
// and the innermost line it has.
func (p *flowParser) decodeData(key string, n *Node, inD bool) (err error) {
	name := strings.TrimPrefix(key, "D.")
	if !inD {
		name = strings.TrimPrefix(strings.TrimPrefix(key, "+"), "D.")
	}
	if name == "" {
		return fmt.Errorf("line %d: data object %q has no name", n.Line, key)
	}
	d := p.ensureData(name, n.Line)
	d.Endpoint = d.Endpoint || !inD && strings.HasPrefix(key, "+")
	line := n.Line
	switch n.Kind {
	case ListNode:
		d.Schema, err = decodeSchema(n)
	case MapNode:
		line, err = decodeDataDetails(d, n)
	case ScalarNode:
		// "+D.name:" followed by a bare pipeline (Figure 9), or
		// "D.out: D.in | T.x" written inside the D section.
		if !inD || strings.Contains(n.Scalar, "|") || strings.HasPrefix(n.Scalar, "D.") {
			return p.addFlowEntry(key, n)
		}
		err = fmt.Errorf("expected schema list or detail block")
	}
	if err != nil {
		return fmt.Errorf("line %d: data %q: %w", line, name, err)
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
		col := schema.Column{Name: strings.TrimSpace(text)}
		if i := strings.Index(text, "=>"); i >= 0 {
			if col = (schema.Column{Path: strings.TrimSpace(text[:i]), Name: strings.TrimSpace(text[i+2:])}); col.Path == "" {
				return nil, fmt.Errorf("mapping %q has no path", text)
			}
		}
		cols = append(cols, col)
	}
	return schema.New(cols...)
}

// decodeDataDetails decodes a detail block; an error comes with its line.
func decodeDataDetails(d *DataDef, n *Node) (line int, err error) {
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
			if d.Schema, err = decodeSchema(v); err != nil {
				return v.Line, err
			}
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
				vals := make([]string, len(v.Items))
				for i, it := range v.Items {
					vals[i] = it.Scalar
				}
				d.SetProp(key, strings.Join(vals, ","))
			}
		}
	}
	return 0, nil
}

// reserve sizes the slabs a section's flows or widget sources are carved
// from: a Flow and a Pipeline per flow, a Pipeline per widget source,
// their references, and a DataDef per data object a D or F entry is first
// to name.
func (p *flowParser) reserve(entries []MapEntry, widgets bool) {
	var flows, pipes, refs, datas int
	for _, e := range entries {
		v := e.Value
		if widgets {
			v = v.Get("source")
		} else if _, ok := p.f.Data[strings.TrimPrefix(strings.TrimPrefix(e.Key, "+"), "D.")]; !ok {
			datas++
		}
		if v != nil && v.Kind == ScalarNode {
			pipes, refs = pipes+1, refs+refCount(v.Scalar)
			if !widgets {
				flows, refs = flows+1, refs+refCount(e.Key)
			}
		}
	}
	p.flows, p.pipes, p.refs, p.datas = make([]Flow, flows), make([]Pipeline, pipes), make([]Ref, refs), make([]DataDef, datas)
	p.f.Flows, p.f.DataOrder = slices.Grow(p.f.Flows, flows), slices.Grow(p.f.DataOrder, datas)
}

// ensureData returns the named data object, carving an empty one from the
// slab if needed: flows may mention sinks that have no D entry.
func (p *flowParser) ensureData(name string, line int) *DataDef {
	if d, ok := p.f.Data[name]; ok {
		return d
	}
	return p.f.AddData(&carve(&p.datas, []DataDef{{Name: name, Line: line}})[0])
}

// addFlowEntry parses one flow: key is "D.out", "+D.out" or
// "(D.a, D.b)"; val is the pipeline expression.
func (p *flowParser) addFlowEntry(key string, val *Node) error {
	key, endpoint := strings.CutPrefix(key, "+")
	key = strings.TrimSpace(key)
	outs, err := p.refList(key)
	if err != nil {
		return fmt.Errorf("line %d: flow output: %w", val.Line, err)
	}
	for _, o := range outs {
		if o.Section != "D" {
			return fmt.Errorf("line %d: flow output %s is not a data object", val.Line, o)
		}
		if d := p.ensureData(o.Name, val.Line); endpoint {
			d.Endpoint = true
		}
	}
	pl := &carve(&p.pipes, []Pipeline{{}})[0]
	if err := p.pipeline(val.Scalar, pl); err != nil {
		return fmt.Errorf("line %d: flow %s: %w", val.Line, key, err)
	}
	for _, in := range pl.Inputs {
		p.ensureData(in.Name, val.Line)
	}
	p.f.Flows = append(p.f.Flows, &carve(&p.flows, []Flow{{Outputs: outs, Pipeline: pl, Line: val.Line}})[0])
	return nil
}

// ---------------------------------------------------------------------
// T and W sections

// decodeDefs decodes the T or W section n, whose entries (what names one)
// are property blocks with a type, handing def each entry's index, name,
// block and type.
func decodeDefs(n *Node, what string, def func(i int, name string, entry *Node, typ string) error) error {
	for i, en := range n.Entries {
		name, entry := en.Key, en.Value
		if entry.Kind != MapNode {
			return fmt.Errorf("line %d: %s %q must be a property block", entry.Line, what, name)
		}
		typ := entry.Str("type")
		if typ == "" && what == "task" && entry.Get("parallel") != nil {
			typ = "parallel"
		}
		if typ == "" {
			return fmt.Errorf("line %d: %s %q has no type", entry.Line, what, name)
		}
		if err := def(i, name, entry, typ); err != nil {
			return err
		}
	}
	return nil
}

func (p *flowParser) decodeTaskSection(n *Node) error {
	defs := make([]TaskDef, len(n.Entries))
	p.f.Tasks, p.f.TaskOrder = make(map[string]*TaskDef, len(defs)), slices.Grow(p.f.TaskOrder, len(defs))
	return decodeDefs(n, "task", func(i int, name string, entry *Node, typ string) error {
		defs[i] = TaskDef{Name: name, Type: typ, Config: entry, Line: entry.Line}
		return p.f.AddTask(&defs[i])
	})
}

func (p *flowParser) decodeWidgetSection(n *Node) error {
	p.reserve(n.Entries, true)
	defs := make([]WidgetDef, len(n.Entries))
	p.f.Widgets, p.f.WidgetOrder = make(map[string]*WidgetDef, len(defs)), slices.Grow(p.f.WidgetOrder, len(defs))
	return decodeDefs(n, "widget", func(i int, name string, entry *Node, typ string) error {
		w := &defs[i]
		*w = WidgetDef{Name: name, Type: typ, Config: entry, Line: entry.Line}
		switch src := entry.Get("source"); {
		case src == nil:
		case src.Kind == ScalarNode:
			w.Source = &carve(&p.pipes, []Pipeline{{}})[0]
			if err := p.pipeline(src.Scalar, w.Source); err != nil {
				return fmt.Errorf("line %d: widget %q source: %w", src.Line, name, err)
			}
		case src.Kind == ListNode:
			for _, it := range src.Items {
				w.Static = append(w.Static, it.Scalar)
			}
		}
		return p.f.AddWidget(w)
	})
}

// ---------------------------------------------------------------------
// L section

func (f *File) decodeLayoutSection(n *Node) error {
	if n.Kind != MapNode {
		return fmt.Errorf("line %d: L section must be a property block", n.Line)
	}
	l := &LayoutDef{Description: n.Str("description"), Line: n.Line}
	if rows := n.Get("rows"); rows != nil {
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
