package flowfile

import (
	"fmt"
	"strings"
)

// String serializes the flow file back to canonical source text. The
// canonical form round-trips through Parse and is what the VCS stores,
// diffs and merges — "since the entire data pipeline is represented as a
// single text file, it makes it very amenable to manage via a source
// control system" (§4.5.1).
func (f *File) String() string {
	var b strings.Builder
	if len(f.DataOrder) > 0 {
		b.WriteString("D:\n")
		for _, name := range f.DataOrder {
			d := f.Data[name]
			switch {
			case d.Schema != nil:
				fmt.Fprintf(&b, "  %s: %s\n", name, d.Schema)
			default:
				// Schema-less declarations survive as bare entries so
				// canonicalization is a fixed point even for objects
				// that only exist as declarations.
				fmt.Fprintf(&b, "  %s:\n", name)
			}
		}
		// Detail blocks follow the schema listing, as in the paper.
		for _, name := range f.DataOrder {
			d := f.Data[name]
			if !d.hasDetails() {
				continue
			}
			fmt.Fprintf(&b, "\nD.%s:\n", name)
			for _, k := range d.PropOrder {
				fmt.Fprintf(&b, "  %s: %s\n", k, quoteIfNeeded(d.Props[k]))
			}
			if d.Endpoint {
				b.WriteString("  endpoint: true\n")
			}
			if d.Publish != "" {
				fmt.Fprintf(&b, "  publish: %s\n", d.Publish)
			}
		}
		b.WriteString("\n")
	}
	if len(f.Flows) > 0 {
		b.WriteString("F:\n")
		for _, fl := range f.Flows {
			fmt.Fprintf(&b, "  %s\n", fl)
		}
		b.WriteString("\n")
	}
	if len(f.TaskOrder) > 0 {
		b.WriteString("T:\n")
		for _, name := range f.TaskOrder {
			writeNodeBlock(&b, name, f.Tasks[name].Config, 1)
		}
		b.WriteString("\n")
	}
	if len(f.WidgetOrder) > 0 {
		b.WriteString("W:\n")
		for _, name := range f.WidgetOrder {
			writeNodeBlock(&b, name, f.Widgets[name].Config, 1)
		}
		b.WriteString("\n")
	}
	if f.Layout != nil {
		b.WriteString("L:\n")
		if f.Layout.Description != "" {
			fmt.Fprintf(&b, "  description: %s\n", quoteIfNeeded(f.Layout.Description))
		}
		if len(f.Layout.Rows) > 0 {
			b.WriteString("  rows:\n")
			for _, row := range f.Layout.Rows {
				cells := make([]string, len(row.Cells))
				for i, c := range row.Cells {
					cells[i] = fmt.Sprintf("span%d: W.%s", c.Span, c.Widget)
				}
				fmt.Fprintf(&b, "    - [%s]\n", strings.Join(cells, ", "))
			}
		}
	}
	return b.String()
}

func (d *DataDef) hasDetails() bool {
	return len(d.Props) > 0 || d.Endpoint || d.Publish != ""
}

// writeNodeBlock serializes a generic node under "name:" at the given
// indent level (2 spaces per level).
func writeNodeBlock(b *strings.Builder, name string, n *Node, level int) {
	pad := strings.Repeat("  ", level)
	switch n.Kind {
	case ScalarNode:
		fmt.Fprintf(b, "%s%s: %s\n", pad, name, quoteIfNeeded(n.Scalar))
	case ListNode:
		if inline, ok := inlineList(n); ok {
			fmt.Fprintf(b, "%s%s: %s\n", pad, name, inline)
			return
		}
		fmt.Fprintf(b, "%s%s:\n", pad, name)
		for _, it := range n.Items {
			writeListItem(b, it, level+1)
		}
	case MapNode:
		fmt.Fprintf(b, "%s%s:\n", pad, name)
		for _, e := range n.Entries {
			writeNodeBlock(b, e.Key, e.Value, level+1)
		}
	}
}

func writeListItem(b *strings.Builder, n *Node, level int) {
	pad := strings.Repeat("  ", level)
	switch n.Kind {
	case ScalarNode:
		fmt.Fprintf(b, "%s- %s\n", pad, quoteIfNeeded(n.Scalar))
	case ListNode:
		if inline, ok := inlineList(n); ok {
			fmt.Fprintf(b, "%s- %s\n", pad, inline)
			return
		}
		fmt.Fprintf(b, "%s-\n", pad)
		for _, it := range n.Items {
			writeListItem(b, it, level+1)
		}
	case MapNode:
		for i, e := range n.Entries {
			k, child := e.Key, e.Value
			if i == 0 {
				if child.Kind == ScalarNode {
					fmt.Fprintf(b, "%s- %s: %s\n", pad, k, quoteIfNeeded(child.Scalar))
					continue
				}
				fmt.Fprintf(b, "%s- %s:\n", pad, k)
				writeChildBlock(b, child, level+2)
				continue
			}
			writeNodeBlock(b, k, child, level+1)
		}
	}
}

func writeChildBlock(b *strings.Builder, n *Node, level int) {
	switch n.Kind {
	case MapNode:
		for _, e := range n.Entries {
			writeNodeBlock(b, e.Key, e.Value, level)
		}
	case ListNode:
		for _, it := range n.Items {
			writeListItem(b, it, level)
		}
	}
}

// inlineList renders a list of scalars inline when short enough.
func inlineList(n *Node) (string, bool) {
	parts := make([]string, 0, len(n.Items))
	total := 0
	for _, it := range n.Items {
		if it.Kind != ScalarNode {
			return "", false
		}
		q := quoteIfNeeded(it.Scalar)
		total += len(q) + 2
		parts = append(parts, q)
	}
	if total > 76 {
		return "", false
	}
	return "[" + strings.Join(parts, ", ") + "]", true
}

// quoteIfNeeded quotes a scalar whose text would not re-scan as itself.
func quoteIfNeeded(s string) string {
	if s == "" {
		return "''"
	}
	if strings.ContainsAny(s, ":#[](),'\"") || s != strings.TrimSpace(s) {
		return "'" + strings.ReplaceAll(s, "'", `\'`) + "'"
	}
	return s
}

// TaskText returns the canonical text of one task definition ("" if
// absent). The VCS merge and the incremental-execution cache use it as
// the task's content signature.
func (f *File) TaskText(name string) string {
	t, ok := f.Tasks[name]
	if !ok {
		return ""
	}
	var b strings.Builder
	writeNodeBlock(&b, name, t.Config, 0)
	return b.String()
}
