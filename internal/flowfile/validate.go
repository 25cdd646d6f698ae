package flowfile

import (
	"fmt"
	"strings"
)

// Problem is one validation finding with the source line it refers to —
// the line of the offending flow, task, widget or layout row, so the
// editor and the lint report render validation and analysis findings
// uniformly.
type Problem struct {
	// Line is the 1-based source line (0 when unknown).
	Line int
	// Message describes the problem in flow-file vocabulary.
	Message string
	// Rule is the lint rule that reports the problem: a bad data
	// detail's (FL042, FL045; see details), or "" for a structural
	// problem, which lint reports as FL000.
	Rule string
	// Detail is the bad data detail behind a Rule problem (nil otherwise).
	Detail *BadDetail
}

// String renders the problem with its line prefix.
func (p Problem) String() string {
	if p.Line > 0 {
		return fmt.Sprintf("line %d: %s", p.Line, p.Message)
	}
	return p.Message
}

// ValidationError collects all problems found in a flow file so users see
// every issue at once — the paper's §5.2 learnings call out error
// reporting as the platform's weakest point, so validation is thorough
// and names the offending section entries.
type ValidationError struct {
	// Problems are the individual findings.
	Problems []Problem
}

// Error implements error.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Problems))
	for i, p := range e.Problems {
		msgs[i] = p.String()
	}
	return fmt.Sprintf("flow file invalid: %s", strings.Join(msgs, "; "))
}

func (e *ValidationError) add(line int, format string, args ...any) {
	e.Problems = append(e.Problems, Problem{Line: line, Message: fmt.Sprintf(format, args...)})
}

// label names a flow by its first output for messages, guarding against
// programmatically built flows with no outputs (the parser always
// produces at least one, but Validate must not panic on any File).
func (fl *Flow) label() string {
	if len(fl.Outputs) == 0 {
		return "(no outputs)"
	}
	return fl.Outputs[0].String()
}

// Validate cross-checks the sections of the file:
//
//   - every flow has at least one output and a pipeline,
//   - every task referenced from a flow or widget source exists in T,
//   - every data object referenced from a flow or widget source is
//     declared, produced by a flow, or plausibly a shared (published)
//     object when allowShared is true,
//   - filter tasks that name a filter_source widget reference a widget
//     that exists,
//   - every layout cell references a widget,
//   - no data object is produced by two flows,
//   - every platform data detail (on_error, timeout, retries, cache,
//     max_rows) has a legal value — see details.
//
// Dangling references to shared objects can only be resolved against the
// platform catalog at compile time, so Validate with allowShared=true is
// the editor-save check and the dashboard compiler re-checks strictly.
func (f *File) Validate(allowShared bool) error {
	e := &ValidationError{}
	produced := map[string]int{}
	for _, fl := range f.Flows {
		if len(fl.Outputs) == 0 {
			e.add(fl.Line, "flow has no output data objects")
		}
		if fl.Pipeline == nil {
			e.add(fl.Line, "flow for %s has no pipeline", fl.label())
			continue
		}
		for _, out := range fl.Outputs {
			produced[out.Name]++
			if produced[out.Name] > 1 {
				e.add(fl.Line, "data object D.%s is produced by more than one flow", out.Name)
			}
		}
		for _, t := range fl.Pipeline.Tasks {
			if _, ok := f.Tasks[t.Name]; !ok {
				e.add(fl.Line, "flow for %s references undefined task T.%s", fl.label(), t.Name)
			}
		}
	}
	for _, name := range f.DataOrder {
		e.checkDetails(f.Data[name])
	}
	// A data object is locally resolvable if it has source details, a
	// declared schema (inline/static data) or is produced by a flow.
	resolvable := func(name string) bool {
		d, ok := f.Data[name]
		if ok && (d.Schema != nil || d.Prop("source") != "" || d.Prop("protocol") != "" || produced[name] > 0) {
			// A declared schema is enough: the object binds to an
			// uploaded data file or connector at compile time (§4.3.2).
			return true
		}
		return allowShared
	}
	for _, fl := range f.Flows {
		if fl.Pipeline == nil {
			continue
		}
		for _, in := range fl.Pipeline.Inputs {
			if !resolvable(in.Name) {
				e.add(fl.Line, "flow for %s reads D.%s which has no source, producing flow, or shared publication", fl.label(), in.Name)
			}
		}
	}
	for _, name := range f.WidgetOrder {
		w := f.Widgets[name]
		if w.Source != nil {
			for _, in := range w.Source.Inputs {
				if !resolvable(in.Name) {
					e.add(w.Line, "widget W.%s reads D.%s which is not resolvable", name, in.Name)
				}
			}
			for _, t := range w.Source.Tasks {
				if _, ok := f.Tasks[t.Name]; !ok {
					e.add(w.Line, "widget W.%s references undefined task T.%s", name, t.Name)
				}
			}
		}
	}
	// Interaction tasks may name widgets as filter sources (§3.5.1).
	for _, name := range f.TaskOrder {
		t := f.Tasks[name]
		if src := t.Config.Str("filter_source"); src != "" {
			ref, err := ParseRef(src)
			if err != nil {
				e.add(t.Line, "task T.%s: bad filter_source %q", name, src)
				continue
			}
			if ref.Section == "W" {
				if _, ok := f.Widgets[ref.Name]; !ok {
					e.add(t.Line, "task T.%s filter_source references undefined widget W.%s", name, ref.Name)
				}
			}
		}
	}
	if f.Layout != nil {
		for i, row := range f.Layout.Rows {
			span := 0
			for _, cell := range row.Cells {
				span += cell.Span
				if _, ok := f.Widgets[cell.Widget]; !ok {
					e.add(f.Layout.Line, "layout row %d references undefined widget W.%s", i+1, cell.Widget)
				}
			}
			if span > 12 {
				e.add(f.Layout.Line, "layout row %d spans %d columns (max 12)", i+1, span)
			}
		}
	}
	if len(e.Problems) > 0 {
		return e
	}
	return nil
}

// SharedInputs lists the data objects the file reads but neither sources
// nor produces locally — these must come from the platform's shared
// catalog (§3.7.2 data-consumption mode): declared ones in declaration
// order, then undeclared ones in the order they are first read.
func (f *File) SharedInputs() []string {
	produced := map[string]bool{}
	for _, fl := range f.Flows {
		for _, out := range fl.Outputs {
			produced[out.Name] = true
		}
	}
	need := map[string]bool{}
	var undeclared []string
	collect := func(p *Pipeline) {
		if p == nil {
			return
		}
		for _, in := range p.Inputs {
			d := f.Data[in.Name]
			local := produced[in.Name] || (d != nil && (d.Prop("source") != "" || d.Prop("protocol") != ""))
			if !local && !need[in.Name] {
				need[in.Name] = true
				if d == nil {
					undeclared = append(undeclared, in.Name)
				}
			}
		}
	}
	for _, fl := range f.Flows {
		collect(fl.Pipeline)
	}
	for _, name := range f.WidgetOrder {
		collect(f.Widgets[name].Source)
	}
	out := make([]string, 0, len(need))
	for _, name := range f.DataOrder {
		if need[name] {
			out = append(out, name)
		}
	}
	return append(out, undeclared...)
}
