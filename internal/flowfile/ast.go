package flowfile

import (
	"fmt"
	"strings"

	"shareinsights/internal/schema"
)

// File is the typed AST of a flow file: the unified representation of a
// complete dashboard. Any section may be absent — a data-processing
// dashboard has only D/F/T (§3.7.1), a consumption dashboard only W/T/L
// (§3.7.2).
type File struct {
	// Name is the dashboard name (from the file name or Set explicitly).
	Name string
	// DataOrder lists data-object names in declaration order.
	DataOrder []string
	// Data holds the data-object definitions keyed by name.
	Data map[string]*DataDef
	// Flows are the F-section flows in declaration order.
	Flows []*Flow
	// TaskOrder lists task names in declaration order.
	TaskOrder []string
	// Tasks holds the task configurations keyed by name.
	Tasks map[string]*TaskDef
	// WidgetOrder lists widget names in declaration order.
	WidgetOrder []string
	// Widgets holds the widget configurations keyed by name.
	Widgets map[string]*WidgetDef
	// Layout is the dashboard layout, or nil for data-processing mode.
	Layout *LayoutDef
}

// NewFile returns an empty flow file with the given name.
func NewFile(name string) *File {
	return &File{
		Name:    name,
		Data:    map[string]*DataDef{},
		Tasks:   map[string]*TaskDef{},
		Widgets: map[string]*WidgetDef{},
	}
}

// DataDef configures one data object: its declared schema and/or its
// source protocol details, plus the sharing flags of §3.4.1.
type DataDef struct {
	// Name is the data-object name (without the D. prefix).
	Name string
	// Schema is the declared column list, or nil when the object's
	// schema is inferred from the flow that produces it.
	Schema *schema.Schema
	// Props holds everything from the detail block: the platform
	// details declared in details.go (read through the typed accessors
	// there) and the keys protocols and formats read (source, format,
	// separator, http_headers.* …; listed in connector.DetailKeys).
	Props map[string]string
	// PropOrder preserves property declaration order for serialization.
	PropOrder []string
	// Endpoint makes the object visible to the dashboard/REST API.
	Endpoint bool
	// Publish names the object in the platform-wide shared catalog; ""
	// means unpublished.
	Publish string
	// Line is the declaring source line.
	Line int
}

// Prop returns a property value ("" if unset).
func (d *DataDef) Prop(key string) string { return d.Props[key] }

// SetProp sets a property, tracking declaration order.
func (d *DataDef) SetProp(key, val string) {
	if d.Props == nil {
		d.Props = map[string]string{}
	}
	if _, ok := d.Props[key]; !ok {
		d.PropOrder = append(d.PropOrder, key)
	}
	d.Props[key] = val
}

// Ref names a data object, task or widget in a pipeline, qualified by
// section: D.name, T.name or W.name.
type Ref struct {
	// Section is "D", "T" or "W".
	Section string
	// Name is the unqualified name.
	Name string
}

// String renders the qualified reference.
func (r Ref) String() string { return r.Section + "." + r.Name }

// ParseRef parses a qualified reference like "D.tweets".
func ParseRef(s string) (Ref, error) {
	s = strings.TrimSpace(s)
	i := strings.IndexByte(s, '.')
	if i <= 0 || i == len(s)-1 {
		return Ref{}, fmt.Errorf("bad reference %q: want Section.name", s)
	}
	sec := s[:i]
	switch sec {
	case "D", "T", "W":
	default:
		return Ref{}, fmt.Errorf("bad reference %q: unknown section %q", s, sec)
	}
	return Ref{Section: sec, Name: s[i+1:]}, nil
}

// Pipeline is a linear chain: one or more data-object inputs piped
// through one or more tasks. It is the only "active" construct in the
// language — there are no other control structures (§4.5.2).
type Pipeline struct {
	// Inputs are the fan-in data objects (at least one).
	Inputs []Ref
	// Tasks are the task references applied in order (may be empty for a
	// widget reading a data object directly).
	Tasks []Ref
}

// String renders the pipeline in flow-file syntax.
func (p *Pipeline) String() string { return string(p.AppendTo(nil)) }

// AppendTo appends the pipeline's flow-file syntax (String's) to dst.
func (p *Pipeline) AppendTo(dst []byte) []byte {
	dst = appendRefs(dst, p.Inputs)
	for _, t := range p.Tasks {
		dst = cat(dst, " | ", t.Section, ".", t.Name)
	}
	return dst
}

// refList parses one reference, or several as (a, b), carving them from
// the parser's slab.
func (p *flowParser) refList(s string) (refs []Ref, err error) {
	r0 := len(p.rstack)
	each := func(part string) {
		if err == nil {
			var r Ref
			r, err = ParseRef(part)
			p.rstack = append(p.rstack, r)
		}
	}
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		eachTop(s[1:len(s)-1], ',', each)
	} else {
		each(s)
	}
	refs = carve(&p.refs, p.rstack[r0:])
	p.rstack = p.rstack[:r0]
	return refs, err
}

// refCount bounds the references in a pipeline or output list: one more
// than its pipes and commas, exactly that when none is quoted.
func refCount(s string) int { return 1 + strings.Count(s, "|") + strings.Count(s, ",") }

// appendRefs writes one reference bare, or several as (a, b): the form
// parseRefs reads.
func appendRefs(dst []byte, refs []Ref) []byte {
	if len(refs) == 1 {
		return cat(dst, refs[0].Section, ".", refs[0].Name)
	}
	dst = append(dst, '(')
	for i, r := range refs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = cat(dst, r.Section, ".", r.Name)
	}
	return append(dst, ')')
}

// pipeline parses the pipeline s ("D.a | T.x | T.y" or "(D.a, D.b) |
// T.join") into pl, carving its references from the parser's slab.
func (p *flowParser) pipeline(s string, pl *Pipeline) (err error) {
	r0 := len(p.rstack)
	eachTop(s, '|', func(part string) {
		switch {
		case err != nil:
		case pl.Inputs == nil:
			pl.Inputs, err = p.refList(strings.TrimSpace(part))
			for i := 0; err == nil && i < len(pl.Inputs); i++ {
				if in := pl.Inputs[i]; in.Section != "D" {
					err = fmt.Errorf("pipeline input %s is not a data object", in)
				}
			}
		default:
			r, e := ParseRef(part)
			if err = e; err == nil && r.Section != "T" {
				err = fmt.Errorf("pipeline stage %s is not a task", r)
			}
			p.rstack = append(p.rstack, r)
		}
	})
	pl.Tasks = carve(&p.refs, p.rstack[r0:])
	p.rstack = p.rstack[:r0]
	return err
}

// Flow is one F-section entry: a pipeline whose result lands in one or
// more output data objects (fan-out).
type Flow struct {
	// Outputs are the data objects the flow produces (usually one).
	Outputs []Ref
	// Pipeline is the transformation chain.
	Pipeline *Pipeline
	// Line is the declaring source line.
	Line int
}

// String renders the flow in flow-file syntax.
func (f *Flow) String() string { return string(f.AppendTo(nil)) }

// AppendTo appends the flow's flow-file syntax (String's) to dst.
func (f *Flow) AppendTo(dst []byte) []byte {
	return f.Pipeline.AppendTo(append(appendRefs(dst, f.Outputs), ": "...))
}

// TaskDef is one T-section entry: a named, typed, configured task. The
// configuration is kept as the generic node tree because each task type
// defines its own parameters; binding happens in internal/task.
type TaskDef struct {
	// Name is the task name (without the T. prefix).
	Name string
	// Type is the task type: filter_by, groupby, join, topn, map,
	// parallel, or a user-registered type.
	Type string
	// Config is the full property block (including "type").
	Config *Node
	// Line is the declaring source line.
	Line int
}

// WidgetDef is one W-section entry.
type WidgetDef struct {
	// Name is the widget name (without the W. prefix).
	Name string
	// Type is the widget type: BubbleChart, WordCloud, Slider, Layout…
	Type string
	// Source is the widget's data pipeline, nil when the widget is
	// static (Source then comes from Static list) or a pure layout.
	Source *Pipeline
	// Static holds an inline static source list (e.g. slider bounds).
	Static []string
	// Config is the full property block for data and visual attributes.
	Config *Node
	// Line is the declaring source line.
	Line int
}

// Attr returns a scalar widget attribute ("" if unset).
func (w *WidgetDef) Attr(key string) string { return w.Config.Str(key) }

// LayoutDef is the L-section: a 12-column grid of widget references.
type LayoutDef struct {
	// Description is the dashboard title.
	Description string
	// Rows are the grid rows.
	Rows []LayoutRow
	// Line is the declaring source line.
	Line int
}

// LayoutRow is one row of cells.
type LayoutRow struct {
	// Cells are the row's cells, left to right.
	Cells []LayoutCell
}

// LayoutCell places a widget in a span of grid columns.
type LayoutCell struct {
	// Span is the number of twelve-width columns the cell occupies.
	Span int
	// Widget is the referenced widget name (without W. prefix).
	Widget string
}

// DataProcessingOnly reports whether the file is a data-processing-mode
// dashboard (no widgets, no layout — §3.7.1).
func (f *File) DataProcessingOnly() bool {
	return len(f.Widgets) == 0 && f.Layout == nil
}

// AddData registers a data definition, keeping declaration order.
func (f *File) AddData(d *DataDef) *DataDef {
	if existing, ok := f.Data[d.Name]; ok {
		return existing
	}
	f.Data[d.Name] = d
	f.DataOrder = append(f.DataOrder, d.Name)
	return d
}

// AddTask registers a task definition.
func (f *File) AddTask(t *TaskDef) error {
	if _, dup := f.Tasks[t.Name]; dup {
		return fmt.Errorf("line %d: duplicate task %q", t.Line, t.Name)
	}
	f.Tasks[t.Name] = t
	f.TaskOrder = append(f.TaskOrder, t.Name)
	return nil
}

// AddWidget registers a widget definition.
func (f *File) AddWidget(w *WidgetDef) error {
	if _, dup := f.Widgets[w.Name]; dup {
		return fmt.Errorf("line %d: duplicate widget %q", w.Line, w.Name)
	}
	f.Widgets[w.Name] = w
	f.WidgetOrder = append(f.WidgetOrder, w.Name)
	return nil
}
