package flowfile

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
)

// String serializes the flow file back to canonical source text. The
// canonical form round-trips through Parse and is what the VCS stores,
// diffs and merges — "since the entire data pipeline is represented as a
// single text file, it makes it very amenable to manage via a source
// control system" (§4.5.1).
func (f *File) String() string { return string(f.AppendText(nil)) }

// AppendText appends the canonical text (String's) to b.
func (f *File) AppendText(b []byte) []byte {
	if len(f.DataOrder) > 0 {
		b = append(b, "D:\n"...)
		for _, name := range f.DataOrder {
			// Schema-less declarations survive as bare entries so
			// canonicalization is a fixed point even for objects that
			// only exist as declarations.
			if b = cat(b, "  ", name, ":"); f.Data[name].Schema != nil {
				b = f.Data[name].Schema.AppendTo(append(b, ' '))
			}
			b = append(b, '\n')
		}
		// Detail blocks follow the schema listing, as in the paper.
		for _, name := range f.DataOrder {
			d := f.Data[name]
			if len(d.Props) == 0 && !d.Endpoint && d.Publish == "" {
				continue
			}
			b = cat(b, "\nD.", name, ":\n")
			for _, k := range d.PropOrder {
				b = append(appendQuoted(cat(b, "  ", k, ": "), d.Props[k]), '\n')
			}
			if d.Endpoint {
				b = append(b, "  endpoint: true\n"...)
			}
			if d.Publish != "" {
				b = cat(b, "  publish: ", d.Publish, "\n")
			}
		}
		b = append(b, '\n')
	}
	if len(f.Flows) > 0 {
		b = append(b, "F:\n"...)
		for _, fl := range f.Flows {
			b = append(fl.AppendTo(append(b, "  "...)), '\n')
		}
		b = append(b, '\n')
	}
	if len(f.TaskOrder) > 0 {
		b = append(b, "T:\n"...)
		for _, name := range f.TaskOrder {
			b = appendNodeBlock(b, name, f.Tasks[name].Config, 1)
		}
		b = append(b, '\n')
	}
	if len(f.WidgetOrder) > 0 {
		b = append(b, "W:\n"...)
		for _, name := range f.WidgetOrder {
			b = appendNodeBlock(b, name, f.Widgets[name].Config, 1)
		}
		b = append(b, '\n')
	}
	if f.Layout != nil {
		b = append(b, "L:\n"...)
		if f.Layout.Description != "" {
			b = append(appendQuoted(append(b, "  description: "...), f.Layout.Description), '\n')
		}
		if len(f.Layout.Rows) > 0 {
			b = append(b, "  rows:\n"...)
			for _, row := range f.Layout.Rows {
				b = append(b, "    - ["...)
				for i, c := range row.Cells {
					if i > 0 {
						b = append(b, ", "...)
					}
					b = cat(strconv.AppendInt(append(b, "span"...), int64(c.Span), 10), ": W.", c.Widget)
				}
				b = append(b, "]\n"...)
			}
		}
	}
	return b
}

// Hash is the flow hash: the hex form of the first 8 bytes of the
// sha256 of the canonical text. Run history and the optimizer's evidence
// are keyed on it.
func (f *File) Hash() string {
	sum := sha256.Sum256(f.AppendText(make([]byte, 0, 4096))) // most flows' text fits
	return hex.EncodeToString(sum[:8])
}

// AppendTaskText appends the canonical text of one task definition to b
// (nothing if the task is absent). A node's signature text is built from
// it, so editing a task's configuration changes the signature of every
// node that applies the task.
func (f *File) AppendTaskText(b []byte, name string) []byte {
	if t, ok := f.Tasks[name]; ok {
		return appendNodeBlock(b, name, t.Config, 0)
	}
	return b
}

// cat appends each of parts to b.
func cat(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// indent appends the pad of the given level (2 spaces per level).
func indent(b []byte, level int) []byte {
	for ; level > 0; level-- {
		b = append(b, "  "...)
	}
	return b
}

// appendNodeBlock serializes a generic node under "name:" at the given
// indent level.
func appendNodeBlock(b []byte, name string, n *Node, level int) []byte {
	b = append(indent(b, level), name...)
	switch {
	case n.Kind == ScalarNode:
		return append(appendQuoted(append(b, ": "...), n.Scalar), '\n')
	case n.Kind == ListNode && inlineList(n):
		return append(appendInline(append(b, ": "...), n), '\n')
	}
	return appendChildBlock(append(b, ":\n"...), n, level+1)
}

func appendListItem(b []byte, n *Node, level int) []byte {
	switch {
	case n.Kind == ScalarNode:
		return append(appendQuoted(append(indent(b, level), "- "...), n.Scalar), '\n')
	case n.Kind == ListNode && inlineList(n):
		return append(appendInline(append(indent(b, level), "- "...), n), '\n')
	case n.Kind == ListNode:
		return appendChildBlock(append(indent(b, level), "-\n"...), n, level+1)
	}
	for i, e := range n.Entries {
		switch {
		case i > 0:
			b = appendNodeBlock(b, e.Key, e.Value, level+1)
		case e.Value.Kind == ScalarNode:
			b = append(appendQuoted(cat(indent(b, level), "- ", e.Key, ": "), e.Value.Scalar), '\n')
		default:
			b = appendChildBlock(cat(indent(b, level), "- ", e.Key, ":\n"), e.Value, level+2)
		}
	}
	return b
}

// appendChildBlock writes a map's entries or a list's items at level.
func appendChildBlock(b []byte, n *Node, level int) []byte {
	switch n.Kind {
	case MapNode:
		for _, e := range n.Entries {
			b = appendNodeBlock(b, e.Key, e.Value, level)
		}
	case ListNode:
		for _, it := range n.Items {
			b = appendListItem(b, it, level)
		}
	}
	return b
}

// inlineList reports whether a list is written inline: every item is a
// scalar and the quoted items, two bytes of separator each, fit in 76.
func inlineList(n *Node) bool {
	total := 0
	for _, it := range n.Items {
		if it.Kind != ScalarNode {
			return false
		}
		if total += len(it.Scalar) + 2; needsQuote(it.Scalar) {
			total += 2 + strings.Count(it.Scalar, "'")
		}
	}
	return total <= 76
}

// appendInline writes an inline list: [a, b, c].
func appendInline(b []byte, n *Node) []byte {
	b = append(b, '[')
	for i, it := range n.Items {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendQuoted(b, it.Scalar)
	}
	return append(b, ']')
}

// needsQuote reports whether a scalar's text would not re-scan as itself.
func needsQuote(s string) bool {
	return s == "" || strings.ContainsAny(s, ":#[](),'\"") || s != strings.TrimSpace(s)
}

// appendQuoted appends s, single-quoted with each ' escaped as \' when
// its text would not re-scan as itself.
func appendQuoted(b []byte, s string) []byte {
	if !needsQuote(s) {
		return append(b, s...)
	}
	b = append(b, '\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			b = append(b, '\\')
		}
		b = append(b, s[i])
	}
	return append(b, '\'')
}
