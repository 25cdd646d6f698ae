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
// whose brackets are unbalanced (multi-line schema lists, Figure 6), and
// sizes the parser's slabs and stacks to the nodes, entries and items the
// tree will hold.
func (p *flowParser) scan(src string) ([]line, error) {
	src = strings.ReplaceAll(src, "\t", "    ") // on every physical line
	out := make([]line, 0, strings.Count(src, "\n")+1)
	num, more := 0, true
	next := func() (s string) {
		s, src, more = strings.Cut(src, "\n")
		num++
		return s
	}
	var nodes, entries, items, sections int
	for more {
		text := splitComment(next())
		if strings.TrimSpace(text) == "" {
			continue
		}
		l := line{num: num}
		for l.indent < len(text) && text[l.indent] == ' ' {
			l.indent++
		}
		body := strings.TrimRight(text[l.indent:], " ")
		// Join continuation lines while brackets are open.
		for bracketDelta(body) > 0 && more {
			body += " " + strings.TrimSpace(splitComment(next()))
		}
		if bracketDelta(body) != 0 {
			return nil, fmt.Errorf("line %d: unbalanced brackets", l.num)
		}
		// Join pipeline continuations: a logical line ending in the pipe
		// operator continues on the next physical line (Appendix A style).
		for strings.HasSuffix(strings.TrimSpace(body), "|") && more {
			body += " " + strings.TrimSpace(splitComment(next()))
		}
		if strings.HasPrefix(body, "- ") || body == "-" {
			l.isItem = true
			body = strings.TrimSpace(strings.TrimPrefix(body, "-"))
		}
		l.key, l.rest, l.hasKey = splitKey(body)
		out = append(out, l)
		// Count what the tree builder makes of l: its value (a map or an
		// inline value), a keyed item's map, and a map entry per key (a
		// section's waits on the stack).
		switch n, i := inlineSize(l.rest); {
		case l.isItem && l.hasKey:
			nodes, entries, items = nodes+n+1, entries+1, items+i+1
		case l.isItem:
			nodes, items = nodes+n, items+i+1
		case l.hasKey && l.indent > 0:
			nodes, entries, items = nodes+n, entries+1, items+i
		case l.hasKey:
			nodes, items, sections = nodes+n, items+i, sections+1
		}
	}
	p.nodes, p.entries, p.items = make([]Node, nodes), make([]MapEntry, entries), make([]*Node, items)
	p.estack, p.istack = make([]MapEntry, 0, entries+sections), make([]*Node, 0, items)
	return out, nil
}

// splitKey splits "key: value" at the first top-level colon; s is all
// value when there is no key. Colons inside quotes or brackets (e.g. URLs
// in bracket lists) do not split; a colon inside an unbracketed, unquoted
// value can only be a key separator in this grammar because scalar values
// with colons (URLs, time formats) are quoted in flow files.
func splitKey(s string) (key, val string, ok bool) {
	scanTop(s, func(i, depth int) bool {
		if s[i] != ':' || depth != 0 {
			return true
		}
		key, val, ok = strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
		return false
	})
	if key == "" {
		return "", s, false
	}
	return key, val, ok
}

// ---------------------------------------------------------------------
// Tree building

// flowParser carves one parse's tree and typed sections from slabs sized
// up front, scan sizing the tree's and each section decoder its own, so a
// parse allocates per file and per section, not per token. A block's
// entries and items wait on a stack (the sections' at its bottom) until it
// closes and they are copied out, exactly sized.
type flowParser struct {
	f               *File
	nodes           []Node
	entries, estack []MapEntry
	items, istack   []*Node
	refs, rstack    []Ref
	flows           []Flow
	pipes           []Pipeline
	datas           []DataDef
}

// carve copies from to the front of *slab and returns that part capped at
// its length, so an append by any holder (a merged section, a caller
// editing the parsed file) reallocates instead of overwriting the next
// part: nil for nothing, a fresh slab's part when *slab is short.
func carve[T any](slab *[]T, from []T) []T {
	if len(from) == 0 {
		return nil
	}
	if len(from) > len(*slab) {
		*slab = make([]T, len(from))
	}
	s := (*slab)[:len(from):len(from)]
	*slab = (*slab)[len(from):]
	copy(s, from)
	return s
}

func (p *flowParser) node(n Node) *Node { return &carve(&p.nodes, []Node{n})[0] }

// close moves what n's block pushed since e0 and i0 off the stacks into n.
func (p *flowParser) close(n *Node, e0, i0 int) {
	n.Entries, n.Items = carve(&p.entries, p.estack[e0:]), carve(&p.items, p.istack[i0:])
	p.estack, p.istack = p.estack[:e0], p.istack[:i0]
}

// block consumes lines at exactly the indentation of the first line into
// parent (a MapNode or ListNode chosen by content), returning the
// unconsumed tail.
func (p *flowParser) block(lines []line, parent *Node) ([]line, error) {
	indent, e0, i0 := lines[0].indent, len(p.estack), len(p.istack)
	for len(lines) > 0 && lines[0].indent >= indent {
		l, err := lines[0], error(nil)
		switch {
		case l.indent > indent:
			return nil, fmt.Errorf("line %d: unexpected indent", l.num)
		case l.isItem && parent.Kind == MapNode && len(p.estack) > e0:
			return nil, fmt.Errorf("line %d: list item inside property block", l.num)
		case l.isItem:
			parent.Kind = ListNode
			lines, err = p.listItem(lines)
		case l.hasKey && parent.Kind == ListNode && len(p.istack) > i0:
			return nil, fmt.Errorf("line %d: property inside list block", l.num)
		case l.hasKey:
			parent.Kind = MapNode
			var child *Node
			child, lines, err = p.value(l, lines[1:])
			p.estack = append(p.estack, MapEntry{l.key, child})
		case parent.Kind != ListNode && len(p.estack) == e0 && len(p.istack) == i0:
			// A bare scalar line: only legal as the entire body of a block
			// value, e.g. the Figure 9 style where a flow's pipeline sits
			// on its own line under "+D.name:".
			parent.Kind, parent.Scalar = ScalarNode, strings.TrimPrefix(parent.Scalar+" "+l.rest, " ")
			lines = lines[1:]
		default:
			return nil, fmt.Errorf("line %d: expected 'key:' or '- item', got %q", l.num, l.rest)
		}
		if err != nil {
			return nil, err
		}
	}
	p.close(parent, e0, i0)
	return lines, nil
}

// listItem consumes one "- ..." item (possibly a multi-line map item, as
// in groupby aggregates) and pushes it on the item stack.
func (p *flowParser) listItem(lines []line) ([]line, error) {
	l := lines[0]
	if !l.hasKey {
		// "- scalar" or "- [inline, list]"
		p.istack = append(p.istack, p.inline(l.num, l.rest))
		return lines[1:], nil
	}
	// "- key: value" starts a map item; following deeper-indented keyed
	// lines belong to it. The paper also indents continuation keys to the
	// same column as the key after "- " — handle both by accepting keyed
	// lines at indent > l.indent as continuations.
	item, e0 := p.node(Node{Kind: MapNode, Line: l.num}), len(p.estack)
	for n := l; ; n = lines[0] {
		child, rest, err := p.value(n, lines[1:])
		if err != nil {
			return nil, err
		}
		p.estack = append(p.estack, MapEntry{n.key, child})
		if lines = rest; len(lines) == 0 || lines[0].isItem || !lines[0].hasKey || lines[0].indent <= l.indent {
			break
		}
	}
	p.close(item, e0, len(p.istack))
	p.istack = append(p.istack, item)
	return lines, nil
}

// value parses the value of the keyed line l: the inline value after its
// colon, or else the block indented deeper than l that starts lines (an
// empty map when there is none); an item's key takes a block only past
// its continuation keys, and no list. It returns the unconsumed tail.
func (p *flowParser) value(l line, lines []line) (*Node, []line, error) {
	if l.rest != "" {
		return p.inline(l.num, l.rest), lines, nil
	}
	child := p.node(Node{Kind: MapNode, Line: l.num})
	if len(lines) > 0 && lines[0].indent > l.indent && !(l.isItem && (lines[0].indent <= l.indent+2 || lines[0].isItem)) {
		var err error
		if lines, err = p.block(lines, child); err != nil {
			return nil, nil, err
		}
	}
	return child, lines, nil
}

// inline parses an inline value: a bracketed list or a scalar.
func (p *flowParser) inline(num int, s string) *Node {
	s = strings.TrimSpace(s)
	n, i0 := p.node(Node{Kind: ListNode, Line: num}), len(p.istack)
	if !eachItem(s, func(item string) { p.istack = append(p.istack, p.inline(num, item)) }) {
		*n = Node{Kind: ScalarNode, Line: num, Scalar: unquote(s)}
	}
	p.close(n, len(p.estack), i0)
	return n
}

// inlineSize counts the nodes and list items inline makes of s.
func inlineSize(s string) (nodes, items int) {
	eachItem(strings.TrimSpace(s), func(item string) {
		n, i := inlineSize(item)
		nodes, items = nodes+n, items+i+1
	})
	return nodes + 1, items
}

// eachItem reports whether s is an inline list, calling each with every
// non-empty item of it, trimmed.
func eachItem(s string, each func(string)) bool {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return false
	}
	eachTop(s[1:len(s)-1], ',', func(item string) {
		if item = strings.TrimSpace(item); item != "" {
			each(item)
		}
	})
	return true
}

// eachTop calls each with every piece of s between the seps outside
// quotes and brackets.
func eachTop(s string, sep byte, each func(string)) {
	start := 0
	scanTop(s, func(i, depth int) bool {
		if s[i] == sep && depth == 0 {
			each(s[start:i])
			start = i + 1
		}
		return true
	})
	each(s[start:])
}

// unquote strips one level of matching quotes.
func unquote(s string) string {
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		return strings.ReplaceAll(s[1:len(s)-1], `\`+s[:1], s[:1])
	}
	return s
}
