package dag

import (
	"crypto/sha256"
	"encoding/hex"
)

// SignatureText is the part of every node's signature that only the flow
// file decides: a source's declared schema; a produced node's pipeline
// text and the canonical text of every task it resolved to, a parallel's
// expansion included (so editing a task's configuration changes the
// signature). A compiled program builds it once per flow file: every
// node's text is appended to one buffer, and the map's values are
// slices of one string made from it.
func (g *Graph) SignatureText() map[string]string {
	b := make([]byte, 0, 4096) // most flows' text fits
	ends := make([]int, 0, 64) // where each node's text ends in b
	for _, name := range g.Order {
		if n := g.Nodes[name]; n.IsSource() && n.Def.Schema != nil {
			b = n.Def.Schema.AppendTo(b)
		} else if !n.IsSource() {
			b = append(n.Flow.Pipeline.AppendTo(append(b, "flow|"...)), '|')
			for _, st := range n.Stages {
				b = append(g.File.AppendTaskText(b, st.Name), 0)
			}
		}
		ends = append(ends, len(b))
	}
	all, start := string(b), 0
	text := make(map[string]string, len(g.Nodes))
	for i, name := range g.Order {
		if n := g.Nodes[name]; !n.IsSource() || n.Def.Schema != nil {
			text[name] = all[start:ends[i]]
		}
		start = ends[i]
	}
	return text
}

// Signatures computes a content signature for every node, topologically,
// over its SignatureText: a produced node's signature also covers its
// inputs' signatures; a source node's covers sourceSig (typically a hash
// of the loaded payload). Two runs in which a node's signature is
// unchanged are guaranteed to compute identical content for it — the
// foundation of the incremental re-execution cache that gives flow-file
// authors the quick-feedback loop of §4.5.3 within a single dashboard.
// A nil text is the graph's own SignatureText.
func (g *Graph) Signatures(text map[string]string, sourceSig func(name string) string) map[string]string {
	if text == nil {
		text = g.SignatureText()
	}
	sigs := make(map[string]string, len(g.Nodes))
	var buf []byte
	for _, name := range g.Order {
		if g.Nodes[name].IsSource() {
			buf = append(append(append(append(buf[:0], "source|"...), name...), '|'), sourceSig(name)...)
			buf = append(append(buf, '|'), text[name]...)
		} else {
			buf = append(buf[:0], text[name]...)
			for _, in := range g.Nodes[name].Inputs {
				buf = append(append(buf, sigs[in]...), 1)
			}
		}
		sum := sha256.Sum256(buf)
		sigs[name] = hex.EncodeToString(sum[:])
	}
	return sigs
}
