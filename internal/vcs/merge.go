package vcs

import (
	"fmt"
	"sort"
	"strings"

	"shareinsights/internal/flowfile"
)

// ConflictError reports the section entries a merge could not reconcile.
type ConflictError struct {
	// Entries are the conflicting entry keys (e.g. "T.players_count").
	Entries []string
}

// Error implements error.
func (e *ConflictError) Error() string {
	return "vcs: merge conflicts in " + strings.Join(e.Entries, ", ")
}

// entryKey identifies one mergeable unit: a data object, flow, task,
// widget, or the layout.
type entryKey = string

// entrySet is a flow file decomposed into independently mergeable
// entries with canonical textual forms for comparison.
type entrySet struct {
	file *flowfile.File
	text map[entryKey]string
	// order preserves entry declaration order for reassembly.
	order []entryKey
}

// entriesOf decomposes flow-file text.
func entriesOf(name string, content []byte) (map[entryKey]string, error) {
	set, err := decompose(name, content)
	if err != nil {
		return nil, err
	}
	return set.text, nil
}

func decompose(name string, content []byte) (*entrySet, error) {
	f, err := flowfile.Parse(name, string(content))
	if err != nil {
		return nil, fmt.Errorf("vcs: %s does not parse: %w", name, err)
	}
	set := &entrySet{file: f, text: map[entryKey]string{}}
	add := func(k entryKey, text string) {
		set.order = append(set.order, k)
		set.text[k] = text
	}
	for _, dn := range f.DataOrder {
		d := f.Data[dn]
		add("D."+dn, dataText(d))
	}
	for _, fl := range f.Flows {
		add("F."+fl.Outputs[0].Name, fl.String())
	}
	sub := flowfile.NewFile("tmp")
	for _, tn := range f.TaskOrder {
		sub.TaskOrder = []string{tn}
		sub.Tasks = map[string]*flowfile.TaskDef{tn: f.Tasks[tn]}
		add("T."+tn, sub.String())
	}
	sub2 := flowfile.NewFile("tmp")
	for _, wn := range f.WidgetOrder {
		sub2.WidgetOrder = []string{wn}
		sub2.Widgets = map[string]*flowfile.WidgetDef{wn: f.Widgets[wn]}
		add("W."+wn, sub2.String())
	}
	if f.Layout != nil {
		lf := flowfile.NewFile("tmp")
		lf.Layout = f.Layout
		add("L", lf.String())
	}
	return set, nil
}

func dataText(d *flowfile.DataDef) string {
	var b strings.Builder
	if d.Schema != nil {
		b.WriteString(d.Schema.String())
	}
	for _, k := range d.PropOrder {
		fmt.Fprintf(&b, ";%s=%s", k, d.Props[k])
	}
	if d.Endpoint {
		b.WriteString(";endpoint")
	}
	if d.Publish != "" {
		b.WriteString(";publish=" + d.Publish)
	}
	return b.String()
}

// MergeFlowFiles performs the section-aware three-way merge. Every entry
// (data object, flow, task, widget, layout) merges independently:
//
//	unchanged on both sides        → keep
//	changed on one side            → take that side
//	changed identically            → keep
//	changed differently            → conflict
//	added on one side              → take it
//	deleted on one side, untouched → delete
//	deleted vs modified            → conflict
//
// This is why "the anxieties with merging and repeated branching should
// be significantly lower" (§4.5.1): the language's demarcated sections
// make most concurrent edits disjoint at entry granularity.
func MergeFlowFiles(name string, base, ours, theirs []byte) ([]byte, error) {
	baseSet, err := decomposeOrEmpty(name, base)
	if err != nil {
		return nil, err
	}
	ourSet, err := decompose(name+" (ours)", ours)
	if err != nil {
		return nil, err
	}
	theirSet, err := decompose(name+" (theirs)", theirs)
	if err != nil {
		return nil, err
	}
	keys := map[entryKey]bool{}
	for k := range baseSet.text {
		keys[k] = true
	}
	for k := range ourSet.text {
		keys[k] = true
	}
	for k := range theirSet.text {
		keys[k] = true
	}
	// winner[k] names which side supplies entry k: "ours", "theirs" or
	// "" for deleted.
	winner := map[entryKey]string{}
	var conflicts []string
	for k := range keys {
		b, inBase := baseSet.text[k]
		o, inOurs := ourSet.text[k]
		t, inTheirs := theirSet.text[k]
		switch {
		case inOurs && inTheirs && o == t:
			winner[k] = "ours"
		case inOurs && inTheirs && o != t:
			switch {
			case inBase && o == b:
				winner[k] = "theirs"
			case inBase && t == b:
				winner[k] = "ours"
			default:
				conflicts = append(conflicts, k)
			}
		case inOurs && !inTheirs:
			if inBase && o != b {
				conflicts = append(conflicts, k) // they deleted what we modified
			} else if !inBase {
				winner[k] = "ours" // we added it
			}
			// deleted by them, untouched by us → stays deleted
		case !inOurs && inTheirs:
			if inBase && t != b {
				conflicts = append(conflicts, k)
			} else if !inBase {
				winner[k] = "theirs"
			}
		}
	}
	if len(conflicts) > 0 {
		sort.Strings(conflicts)
		return nil, &ConflictError{Entries: conflicts}
	}
	merged := assemble(name, winner, ourSet, theirSet)
	return merged.AppendText(nil), nil
}

func decomposeOrEmpty(name string, content []byte) (*entrySet, error) {
	if len(content) == 0 {
		return &entrySet{file: flowfile.NewFile(name), text: map[entryKey]string{}}, nil
	}
	return decompose(name+" (base)", content)
}

// assemble rebuilds a File from the winning entries, preserving our
// declaration order and appending their additions.
func assemble(name string, winner map[entryKey]string, ours, theirs *entrySet) *flowfile.File {
	out := flowfile.NewFile(name)
	take := func(k entryKey) {
		side, ok := winner[k]
		if !ok {
			return
		}
		src := ours.file
		if side == "theirs" {
			src = theirs.file
		}
		switch {
		case strings.HasPrefix(k, "D."):
			out.AddData(src.Data[k[2:]])
		case strings.HasPrefix(k, "F."):
			for _, fl := range src.Flows {
				if fl.Outputs[0].Name == k[2:] {
					out.Flows = append(out.Flows, fl)
					return
				}
			}
		case strings.HasPrefix(k, "T."):
			_ = out.AddTask(src.Tasks[k[2:]])
		case strings.HasPrefix(k, "W."):
			_ = out.AddWidget(src.Widgets[k[2:]])
		case k == "L":
			out.Layout = src.Layout
		}
	}
	seen := map[entryKey]bool{}
	for _, k := range ours.order {
		seen[k] = true
		take(k)
	}
	for _, k := range theirs.order {
		if !seen[k] {
			take(k)
		}
	}
	return out
}
