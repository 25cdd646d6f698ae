package analyze

import (
	"fmt"

	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/schema"
	"shareinsights/internal/task"
)

// liveness is the backward liveness pass: starting from what the outside
// world can observe (endpoints, published objects, widget bindings,
// chains the walk could not analyze — all conservatively fully live), it
// propagates column demand backward through every walked flow. Source
// columns that are fetched but unused become facts only
// (projection-pushdown input for the optimizer), not findings — the flow
// author often cannot change a source's schema. Demand is a bitset over
// the schema at each point — an object's, a stage's output — carved from
// one slab.
func (a *Analysis) liveness() {
	// Externally visible objects need every column.
	for _, name := range a.f.DataOrder {
		if d := a.f.Data[name]; d.Endpoint || d.Publish != "" {
			a.objects[name].full = true
		}
	}
	// Widgets may render any column of their source pipeline's inputs;
	// their demand is not tracked column-by-column.
	for _, c := range a.g.Widgets {
		for _, in := range c.Inputs {
			o := a.objects[in]
			o.full, o.consumed = true, true
		}
	}
	// A flow the walk could not analyze may read anything.
	for _, fl := range a.f.Flows {
		if fl.Pipeline == nil {
			continue
		}
		rec := a.flowRecs[fl]
		for _, in := range fl.Pipeline.Inputs {
			o := a.objects[in.Name]
			o.consumed = true
			if rec == nil || !rec.ok {
				o.full = true
			}
		}
	}

	n := 0
	for _, o := range a.objects {
		n += words(o.node.Schema)
	}
	for i := range a.walked {
		if rec := &a.walked[i]; rec.ok {
			n += words(rec.chain.Schema)
			for _, st := range rec.stages[:max(len(rec.stages)-1, 0)] {
				n += words(st.Out)
			}
		}
	}
	slab := make([]uint64, n)
	for _, o := range a.objects {
		o.live = carve(&slab, words(o.node.Schema))
	}
	// The graph's order puts every consumer of a flow's outputs after
	// the flow, so walking it backwards settles an output's demand before
	// its producer reads it: one pass, no fixpoint.
	for i := len(a.walked) - 1; i >= 0; i-- {
		if rec := &a.walked[i]; rec.ok {
			a.backProp(rec, &slab)
		}
	}
}

// checkDeadColumns reports FL064: a computed column nothing downstream
// reads. Deduplicated by task and column — a task shared by several
// flows reports once.
func (l *linter) checkDeadColumns() {
	seen := map[string]bool{}
	for _, fl := range l.f.Flows {
		rec := l.flowRecs[fl]
		if rec == nil || !rec.ok {
			continue
		}
		for k, st := range rec.stages {
			for _, c := range computedCols(rec.chain.Specs[k]) {
				if i := st.Out.Index(c); (i >= 0 && has(st.liveAfter, i)) || seen[st.Name+"\x00"+c] {
					continue
				}
				seen[st.Name+"\x00"+c] = true
				l.add(Finding{Rule: "FL064", Severity: Info, Entity: "T." + st.Name, Line: st.Def.Line,
					Message: fmt.Sprintf("column %q is computed but never used downstream — no endpoint, widget, filter or later task reads it", c),
					Hint:    "drop the column, or remove the task if nothing else needs it"})
			}
		}
	}
}

// outLive adds to dst, a set over out, the column demand of a flow's
// output objects; a fully-live output demands its whole schema.
func (a *Analysis) outLive(dst []uint64, out *schema.Schema, rec *chainRec) {
	for _, ref := range rec.flow.Outputs {
		o := a.objects[ref.Name]
		if o.node.Schema == nil {
			continue
		}
		for i, c := range o.node.Schema.Columns() {
			if j := out.Index(c.Name); j >= 0 && (o.full || has(o.live, i)) {
				dst[j/64] |= 1 << (j % 64)
			}
		}
	}
}

// backProp pushes the demand on a walked chain's outputs backward
// through its stages, into the sets of its input objects, keeping for
// FL064 the demand live right after each stage on the stage's record.
func (a *Analysis) backProp(rec *chainRec, slab *[]uint64) {
	out := carve(slab, words(rec.chain.Schema))
	a.outLive(out, rec.chain.Schema, rec)
	var sets [2][]uint64
	for k := len(rec.stages) - 1; k >= 0; k-- {
		st := &rec.stages[k]
		st.liveAfter = out
		in := sets[:0]
		if k > 0 {
			out = carve(slab, words(rec.stages[k-1].Out))
			in = append(in, out)
		} else {
			for _, name := range rec.chain.Inputs {
				in = append(in, a.objects[name].live)
			}
		}
		flowcheck.LiveIn(rec.chain.Specs[k], st.Def, st.ins, st.Out, st.liveAfter, in)
	}
	if len(rec.stages) == 0 { // the one input feeds the output unchanged
		live := a.objects[rec.chain.Inputs[0]].live
		for w := range live {
			live[w] |= out[w]
		}
	}
}

// words is the length of a bitset over s's columns (0 for no schema).
func words(s *schema.Schema) int {
	if s == nil {
		return 0
	}
	return (s.Len() + 63) / 64
}

// has reports whether position i is in a bitset.
func has(bits []uint64, i int) bool { return bits[i/64]&(1<<(i%64)) != 0 }

// computedCols names the columns a stage derives (as opposed to carries):
// map operator outputs and group-by aggregate fields.
func computedCols(sp task.Spec) []string {
	switch t := sp.(type) {
	case *task.MapSpec:
		return t.OutColumns()
	case *task.GroupBySpec:
		var out []string
		for _, a := range t.Aggs {
			out = append(out, a.OutField)
		}
		return out
	}
	return nil
}
