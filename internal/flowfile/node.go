// Package flowfile implements the ShareInsights flow-file language: the
// single unified representation for an entire data pipeline, from data
// ingestion (D) through tasks (T) and flows (F) to widgets (W) and
// dashboard layout (L).
//
// The surface syntax follows the paper's listings (Figures 4–23 and
// Appendix A/B): an indentation-structured configuration language with
//
//   - `key: value` scalar properties,
//   - nested blocks by indentation,
//   - `- item` lists (whose items may themselves be property blocks),
//   - inline bracketed lists `[a, b, path => c]` that may span lines,
//   - `#` line comments,
//   - Unix-pipe flow expressions `D.out: (D.a, D.b) | T.x | T.y`,
//   - the `+D.name:` alias for `endpoint: true` (Figure 9).
//
// Parsing happens in two stages: a generic indentation tree (Node, this
// file) and typed section decoding (parse.go) into the File AST (ast.go).
package flowfile

import (
	"fmt"
	"strings"
)

// NodeKind distinguishes the three shapes of the generic tree.
type NodeKind int

// Node kinds.
const (
	ScalarNode NodeKind = iota
	MapNode
	ListNode
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case ScalarNode:
		return "scalar"
	case MapNode:
		return "map"
	case ListNode:
		return "list"
	default:
		return "node"
	}
}

// MapEntry is one key/value pair of a MapNode. Entries preserve source
// order and may repeat a key: a flow file's F section can legally contain
// both a flow and a detail block for the same data object (Figure 19), so
// duplicate detection is left to the section decoders that care.
type MapEntry struct {
	Key   string
	Value *Node
}

// Node is an untyped flow-file fragment.
type Node struct {
	// Kind is the node shape.
	Kind NodeKind
	// Line is the 1-based source line the node started on, for errors.
	Line int
	// Scalar holds the text of a ScalarNode.
	Scalar string
	// Entries holds MapNode key/value pairs in source order.
	Entries []MapEntry
	// Items holds ListNode elements.
	Items []*Node
}

func newMap(line int) *Node { return &Node{Kind: MapNode, Line: line} }

func newList(line int) *Node { return &Node{Kind: ListNode, Line: line} }

func newScalar(line int, s string) *Node { return &Node{Kind: ScalarNode, Line: line, Scalar: s} }

// Get returns the first child for key, or nil.
func (n *Node) Get(key string) *Node {
	if n == nil || n.Kind != MapNode {
		return nil
	}
	for _, e := range n.Entries {
		if e.Key == key {
			return e.Value
		}
	}
	return nil
}

// Has reports whether the map has at least one entry for key.
func (n *Node) Has(key string) bool { return n.Get(key) != nil }

// Str returns the scalar text for key ("" if absent or non-scalar).
func (n *Node) Str(key string) string {
	c := n.Get(key)
	if c == nil || c.Kind != ScalarNode {
		return ""
	}
	return c.Scalar
}

// Bool reports whether key holds the scalar "true".
func (n *Node) Bool(key string) bool { return strings.EqualFold(n.Str(key), "true") }

// StrList returns the child list for key as scalar strings. A scalar
// child is treated as a one-element list, so `groupby: project` and
// `groupby: [project, year]` are both accepted.
func (n *Node) StrList(key string) []string {
	c := n.Get(key)
	if c == nil {
		return nil
	}
	switch c.Kind {
	case ScalarNode:
		if c.Scalar == "" {
			return nil
		}
		return []string{c.Scalar}
	case ListNode:
		out := make([]string, 0, len(c.Items))
		for _, it := range c.Items {
			if it.Kind == ScalarNode {
				out = append(out, it.Scalar)
			}
		}
		return out
	}
	return nil
}

// set appends key → child, preserving order. Duplicates are permitted at
// this layer; section decoders reject them where the language forbids it.
func (n *Node) set(key string, child *Node) {
	n.Entries = append(n.Entries, MapEntry{Key: key, Value: child})
}

// ---------------------------------------------------------------------
// Line scanning

type line struct {
	num    int // 1-based source line number
	indent int
	isItem bool   // starts with "- "
	key    string // "" for bare scalar lines
	hasKey bool
	rest   string // value text after "key:" or "- " or the full scalar
}

// scanTop calls at with the index of every byte of s outside quotes (a
// backslash escapes the next byte inside them) other than a bracket, and
// the depth of [] and () it sits at, until at returns false. It returns
// the depth at the end: opens minus closes.
func scanTop(s string, at func(i, depth int) bool) int {
	inQ, depth := byte(0), 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inQ != 0:
			if c == '\\' {
				i++
			} else if c == inQ {
				inQ = 0
			}
		case c == '\'' || c == '"':
			inQ = c
		case c == '[' || c == '(':
			depth++
		case c == ']' || c == ')':
			depth--
		case !at(i, depth):
			return depth
		}
	}
	return depth
}

// splitComment removes a trailing # comment that is not inside quotes.
func splitComment(s string) string {
	end := len(s)
	scanTop(s, func(i, _ int) bool {
		if s[i] == '#' {
			end = i
		}
		return s[i] != '#'
	})
	return s[:end]
}

// bracketDelta returns opens-minus-closes of []() outside quotes.
func bracketDelta(s string) int { return scanTop(s, func(int, int) bool { return true }) }

// scan converts source text into logical lines, joining physical lines
// whose brackets are unbalanced (multi-line schema lists, Figure 6).
func scan(src string) ([]line, error) {
	var out []line
	raw := strings.Split(src, "\n")
	for i := 0; i < len(raw); i++ {
		num := i + 1
		text := splitComment(strings.ReplaceAll(raw[i], "\t", "    "))
		if strings.TrimSpace(text) == "" {
			continue
		}
		indent := 0
		for indent < len(text) && text[indent] == ' ' {
			indent++
		}
		body := strings.TrimRight(text[indent:], " ")
		// Join continuation lines while brackets are open.
		for bracketDelta(body) > 0 && i+1 < len(raw) {
			i++
			body += " " + strings.TrimSpace(splitComment(raw[i]))
		}
		if bracketDelta(body) != 0 {
			return nil, fmt.Errorf("line %d: unbalanced brackets", num)
		}
		// Join pipeline continuations: a logical line ending in the pipe
		// operator continues on the next physical line (Appendix A style).
		for strings.HasSuffix(strings.TrimSpace(body), "|") && i+1 < len(raw) {
			i++
			body += " " + strings.TrimSpace(splitComment(strings.ReplaceAll(raw[i], "\t", "    ")))
		}
		l := line{num: num, indent: indent}
		if strings.HasPrefix(body, "- ") || body == "-" {
			l.isItem = true
			body = strings.TrimSpace(strings.TrimPrefix(body, "-"))
		}
		if k, v, ok := splitKey(body); ok {
			l.key = k
			l.hasKey = true
			l.rest = v
		} else {
			l.rest = body
		}
		out = append(out, l)
	}
	return out, nil
}

// splitKey splits "key: value" at the first top-level colon. Colons
// inside quotes or brackets (e.g. URLs in bracket lists) do not split; a
// colon inside an unbracketed, unquoted value can only be a key
// separator in this grammar because scalar values with colons (URLs,
// time formats) are quoted in flow files.
func splitKey(s string) (key, val string, ok bool) {
	scanTop(s, func(i, depth int) bool {
		if s[i] != ':' || depth != 0 {
			return true
		}
		key, val, ok = strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
		return false
	})
	if key == "" {
		return "", "", false
	}
	return key, val, ok
}

// ---------------------------------------------------------------------
// Tree building

// parseBlock consumes lines at exactly the indentation of the first line
// into parent (a MapNode or ListNode chosen by content), returning the
// unconsumed tail.
func parseBlock(lines []line, minIndent int, parent *Node) ([]line, error) {
	if len(lines) == 0 {
		return lines, nil
	}
	indent := lines[0].indent
	if indent < minIndent {
		return lines, nil
	}
	for len(lines) > 0 {
		l := lines[0]
		if l.indent < indent {
			return lines, nil
		}
		if l.indent > indent {
			return nil, fmt.Errorf("line %d: unexpected indent", l.num)
		}
		switch {
		case l.isItem:
			if parent.Kind == MapNode && len(parent.Entries) > 0 {
				return nil, fmt.Errorf("line %d: list item inside property block", l.num)
			}
			parent.Kind = ListNode
			var err error
			lines, err = parseListItem(lines, parent)
			if err != nil {
				return nil, err
			}
		case l.hasKey:
			if parent.Kind == ListNode && len(parent.Items) > 0 {
				return nil, fmt.Errorf("line %d: property inside list block", l.num)
			}
			parent.Kind = MapNode
			child, rest, err := parseValue(l, lines[1:])
			if err != nil {
				return nil, err
			}
			parent.set(l.key, child)
			lines = rest
		default:
			// A bare scalar line: only legal as the entire body of a block
			// value, e.g. the Figure 9 style where a flow's pipeline sits
			// on its own line under "+D.name:".
			if parent.Kind != ListNode && len(parent.Entries) == 0 && len(parent.Items) == 0 {
				if parent.Scalar != "" {
					parent.Scalar += " "
				}
				parent.Kind = ScalarNode
				parent.Scalar += l.rest
				lines = lines[1:]
				continue
			}
			return nil, fmt.Errorf("line %d: expected 'key:' or '- item', got %q", l.num, l.rest)
		}
	}
	return lines, nil
}

// parseListItem consumes one "- ..." item (possibly a multi-line map
// item, as in groupby aggregates) and appends it to list.
func parseListItem(lines []line, list *Node) ([]line, error) {
	l := lines[0]
	lines = lines[1:]
	if !l.hasKey {
		// "- scalar" or "- [inline, list]"
		list.Items = append(list.Items, parseInline(l.num, l.rest))
		return lines, nil
	}
	// "- key: value" starts a map item; following deeper-indented keyed
	// lines belong to it. The paper also indents continuation keys to the
	// same column as the key after "- " — handle both by accepting keyed
	// lines at indent > l.indent as continuations.
	item := newMap(l.num)
	var first *Node
	if l.rest != "" {
		first = parseInline(l.num, l.rest)
	} else {
		first = newMap(l.num)
		if len(lines) > 0 && lines[0].indent > l.indent+2 && !lines[0].isItem {
			var err error
			lines, err = parseBlock(lines, lines[0].indent, first)
			if err != nil {
				return nil, err
			}
		}
	}
	item.set(l.key, first)
	for len(lines) > 0 {
		n := lines[0]
		if n.isItem || !n.hasKey || n.indent <= l.indent {
			break
		}
		child, rest, err := parseValue(n, lines[1:])
		if err != nil {
			return nil, err
		}
		item.set(n.key, child)
		lines = rest
	}
	list.Items = append(list.Items, item)
	return lines, nil
}

// parseValue parses the value of the keyed line l: the inline value after
// its colon, or else the block indented deeper than l that starts lines
// (an empty map when there is none). It returns the unconsumed tail.
func parseValue(l line, lines []line) (*Node, []line, error) {
	if l.rest != "" {
		return parseInline(l.num, l.rest), lines, nil
	}
	child := newMap(l.num)
	if len(lines) > 0 && lines[0].indent > l.indent {
		var err error
		if lines, err = parseBlock(lines, lines[0].indent, child); err != nil {
			return nil, nil, err
		}
	}
	return child, lines, nil
}

// parseInline parses an inline value: a bracketed list or a scalar.
func parseInline(num int, s string) *Node {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		list := newList(num)
		for _, part := range splitTopLevel(s[1:len(s)-1], ',') {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			list.Items = append(list.Items, parseInline(num, part))
		}
		return list
	}
	return newScalar(num, unquote(s))
}

// splitTopLevel splits s on sep outside quotes/brackets.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	start := 0
	scanTop(s, func(i, depth int) bool {
		if s[i] == sep && depth == 0 {
			parts, start = append(parts, s[start:i]), i+1
		}
		return true
	})
	return append(parts, s[start:])
}

// unquote strips one level of matching quotes.
func unquote(s string) string {
	if len(s) >= 2 {
		if s[0] == '\'' && s[len(s)-1] == '\'' || s[0] == '"' && s[len(s)-1] == '"' {
			body := s[1 : len(s)-1]
			body = strings.ReplaceAll(body, `\`+string(s[0]), string(s[0]))
			return body
		}
	}
	return s
}
