// Package widget implements the W section of a flow file: the
// visualization widgets, their data/visual attribute binding, their role
// as data sources for interaction flows, and server-side rendering.
//
// "Every widget has a set of attributes which associate (or bind) with
// data source columns. These attributes are called data attributes or
// widget columns. The remaining attributes of a widget are visual
// attributes" (§3.5). Widgets are also data objects: interaction filter
// tasks read a widget's current selection through its widget columns
// (§3.5.1), with no event-handler code anywhere.
//
// The paper renders widgets as JavaScript in the browser; this package
// renders them server-side to HTML/SVG and plain text (see DESIGN.md
// substitutions) — the binding model, selection semantics and extension
// registry are the system under test, not the pixels.
package widget

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/table"
)

// Attr describes one data attribute (widget column) of a widget type.
type Attr struct {
	// Name is the widget column name (e.g. "text", "size", "x").
	Name string
	// Required marks attributes every configuration must bind.
	Required bool
}

// Descriptor defines a widget type — the unit of the Widgets extension
// API (§4.2: "Commercial and open source widgets can easily be made part
// of the platform by implementing this interface").
type Descriptor struct {
	// Type is the widget type name used in flow files.
	Type string
	// DataAttrs are the type's widget columns.
	DataAttrs []Attr
	// SelectionKey is the widget column that carries user selections
	// ("" for widgets that emit no selection).
	SelectionKey string
	// NeedsSource marks types that require a data pipeline or static
	// source.
	NeedsSource bool
	// Render writes the widget's HTML/SVG. env gives access to sibling
	// widgets for container types (Layout, TabLayout).
	Render func(inst *Instance, env RenderEnv, w io.Writer) error
}

// RenderEnv lets container widgets render their children.
type RenderEnv interface {
	// Widget resolves a sibling widget instance by name.
	Widget(name string) (*Instance, bool)
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Descriptor{}
	builtin  = map[string]bool{}
)

// Register installs a widget type. Platform types cannot be replaced.
func Register(d *Descriptor) error {
	regMu.Lock()
	defer regMu.Unlock()
	if builtin[d.Type] {
		return fmt.Errorf("widget: cannot replace platform widget type %q", d.Type)
	}
	registry[d.Type] = d
	return nil
}

func registerBuiltin(d *Descriptor) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[d.Type] = d
	builtin[d.Type] = true
}

// Lookup resolves a widget type.
func Lookup(typ string) (*Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[typ]
	return d, ok
}

// Types lists registered widget types, sorted.
func Types() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for t := range registry {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Instance is one configured widget with its current data and selection.
type Instance struct {
	// Def is the flow-file configuration.
	Def *flowfile.WidgetDef
	// Desc is the resolved type descriptor.
	Desc *Descriptor
	// Data is the widget's current data (after its source pipeline and
	// any interaction filtering). Nil for static and layout widgets.
	Data *table.Table
	// Selection holds the currently selected values of the selection
	// key's bound data column (display form).
	Selection []string
	// RangeSel marks Selection as an interval [lo, hi] (sliders with
	// range: true).
	RangeSel bool
}

// NewInstance resolves a widget definition against the type registry and
// checks its attribute configuration.
func NewInstance(def *flowfile.WidgetDef) (*Instance, error) {
	desc, faults := Check(def)
	if len(faults) > 0 {
		return nil, faults[0].Err
	}
	inst := &Instance{Def: def, Desc: desc}
	inst.applyDefaultSelection()
	return inst, nil
}

// FaultKind classifies a Fault, so a reporter chooses its rule without
// reading message text.
type FaultKind int

// Fault kinds.
const (
	UnknownType FaultKind = iota // no widget type of that name is registered
	MissingAttr                  // a required data attribute is not bound
	NoSource                     // the type needs a source pipeline or static rows
	BadTag                       // an HTML widget's tag is not a plain element name
)

// Fault is one reason a widget definition cannot render: its kind, the
// unknown type, missing attribute or refused tag it names, and the error
// a compile refuses the definition with.
type Fault struct {
	Kind  FaultKind
	Value string
	Err   error
}

// Check is the one verdict on a definition, without an instance: the
// widget type's descriptor (nil when the type is unknown) and every
// reason the definition cannot render, in order. NewInstance and a
// compile refuse the definition with the first; lint reports them all.
func Check(def *flowfile.WidgetDef) (*Descriptor, []Fault) {
	desc, ok := Lookup(def.Type)
	if !ok {
		return nil, []Fault{{UnknownType, def.Type, fmt.Errorf("widget W.%s: unknown type %q (have %s)", def.Name, def.Type, strings.Join(Types(), ", "))}}
	}
	var faults []Fault
	for _, a := range desc.DataAttrs {
		if a.Required && def.Attr(a.Name) == "" {
			faults = append(faults, Fault{MissingAttr, a.Name, fmt.Errorf("widget W.%s (%s): missing required data attribute %q", def.Name, def.Type, a.Name)})
		}
	}
	if desc.NeedsSource && def.Source == nil && len(def.Static) == 0 {
		faults = append(faults, Fault{NoSource, "", fmt.Errorf("widget W.%s (%s): needs a source", def.Name, def.Type)})
	}
	if tag := def.Attr("tag"); def.Type == "HTML" && tag != "" && !plainTag(tag) {
		faults = append(faults, Fault{BadTag, tag, fmt.Errorf("widget W.%s (HTML): tag %q is not a lower-case element name, or is script, style or iframe", def.Name, tag)})
	}
	return desc, faults
}

// plainTag reports whether an HTML widget's tag can be written into the
// markup as it is: a lower-case element name, [a-z][a-z0-9]*, that
// neither runs code nor restyles the page.
func plainTag(tag string) bool {
	return 'a' <= tag[0] && tag[0] <= 'z' && strings.Trim(tag, "abcdefghijklmnopqrstuvwxyz0123456789") == "" &&
		tag != "script" && tag != "style" && tag != "iframe"
}

// applyDefaultSelection seeds the selection from default_selection
// configuration (the Apache dashboard pre-selects project 'pig').
func (inst *Instance) applyDefaultSelection() {
	cfg := inst.Def.Config
	if !cfg.Bool("default_selection") {
		// Range sliders with a static source default to the full range.
		if inst.Def.Type == "Slider" && cfg.Bool("range") && len(inst.Def.Static) >= 2 {
			inst.Selection = []string{inst.Def.Static[0], inst.Def.Static[len(inst.Def.Static)-1]}
			inst.RangeSel = true
		}
		return
	}
	if v := cfg.Str("default_selection_value"); v != "" {
		inst.Selection = []string{v}
	}
}

// DataColumn resolves a widget column to its bound data column.
func (inst *Instance) DataColumn(widgetCol string) string {
	return inst.Def.Attr(widgetCol)
}

// Bind attaches the widget's computed data, verifying every bound data
// attribute exists in the table's schema.
func (inst *Instance) Bind(t *table.Table) error {
	for _, a := range inst.Desc.DataAttrs {
		col := inst.Def.Attr(a.Name)
		if col == "" {
			continue
		}
		if !t.Schema().Has(col) {
			return fmt.Errorf("widget W.%s: data attribute %s binds to column %q which is not in %s",
				inst.Def.Name, a.Name, col, t.Schema())
		}
	}
	inst.Data = t
	return nil
}

// Select records a user selection (values of the selection key's bound
// column). Selecting nothing clears the selection.
func (inst *Instance) Select(values ...string) {
	inst.Selection = values
	inst.RangeSel = false
}

// SelectRange records an interval selection (sliders).
func (inst *Instance) SelectRange(lo, hi string) {
	inst.Selection = []string{lo, hi}
	inst.RangeSel = true
}

// SelectionValues implements the widget-as-data-object read used by
// interaction filter tasks: it returns the current selection when asked
// through the widget's selection-key column. The wire form prefixes
// "range:" for interval selections (see task.Selection).
func (inst *Instance) SelectionValues(widgetCol string) ([]string, bool) {
	if len(inst.Selection) == 0 {
		return nil, false
	}
	if widgetCol != "" && inst.Desc.SelectionKey != "" && widgetCol != inst.Desc.SelectionKey {
		// Sliders answer through any column (their selection is a range
		// over whatever column the filter targets); discrete widgets
		// answer only through their selection key.
		if !inst.RangeSel {
			return nil, false
		}
	}
	if inst.RangeSel {
		return append([]string{"range:"}, inst.Selection...), true
	}
	return inst.Selection, true
}
