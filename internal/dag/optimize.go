package dag

import (
	"shareinsights/internal/expr"
	"shareinsights/internal/task"
)

// Optimizer passes. The paper's compilation service holds the whole
// pipeline as one AST precisely so it can be rearranged: "The AST
// provides opportunities to optimize the complete flow. For example,
// tasks can be re-arranged to minimize data transfers to the browser"
// (§4.1); §6 restates this as the headline future optimization. The
// passes below are those rearrangements.

// DeadSinks returns the produced data objects nothing consumes: not an
// endpoint, not published, and feeding neither another flow nor a
// widget. The executor skips them ("it is assumed to be a throw-away
// data source/sink", §3.4.1 — a throw-away sink with no readers needs no
// computation at all).
func (g *Graph) DeadSinks() []string {
	// Iterate until fixpoint: removing a dead sink can orphan its inputs.
	dead := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, name := range g.Order {
			n := g.Nodes[name]
			if n.IsSource() || dead[name] || n.Def.Endpoint || n.Def.Publish != "" {
				continue
			}
			live := false
			for _, c := range n.Consumers {
				if len(c) > 7 && c[:7] == "widget:" {
					live = true
					break
				}
				if !dead[c] {
					live = true
					break
				}
			}
			if !live {
				dead[name] = true
				changed = true
			}
		}
	}
	var out []string
	for _, name := range g.Order {
		if dead[name] {
			out = append(out, name)
		}
	}
	return out
}

// DeadSources returns the source data objects nothing consumes: not an
// endpoint, not published, feeding no flow and no widget. The complement
// of DeadSinks — a declared ingest that no pipeline ever reads is almost
// always a leftover from editing, so the linter flags it.
func (g *Graph) DeadSources() []string {
	var out []string
	for _, name := range g.Order {
		n := g.Nodes[name]
		if !n.IsSource() || n.Def.Endpoint || n.Def.Publish != "" {
			continue
		}
		if len(n.Consumers) == 0 {
			out = append(out, name)
		}
	}
	return out
}

// BlockedFilter describes an expression filter that HoistFilters could
// not bring to the head of its chain: an earlier stage produces a column
// the filter reads (or is not a map at all), so every row must flow
// through that stage before it can be discarded.
type BlockedFilter struct {
	// Index is the filter's position in the chain as written.
	Index int
	// Blocker is the as-written position of the nearest stage the filter
	// cannot commute past.
	Blocker int
	// Columns are the filter's referenced columns that the blocking stage
	// produces (empty when the blocker is simply not a map stage).
	Columns []string
}

// Hoist is the result of HoistFilters: the one filter-hoisting decision
// that dag.Optimize executes, the widget-source compile ships to the
// batch plan and lint rule FL050 reports on.
type Hoist struct {
	// Specs is the hoisted order: a fresh slice when Moved, the input
	// slice itself when nothing moved. The input is never written.
	Specs []task.Spec
	// Moved reports whether any filter changed position.
	Moved bool
	// Blocked lists, in as-written order, the expression filters that
	// could not reach the head of the chain and what stopped each.
	Blocked []BlockedFilter
}

// HoistFilters rearranges a linear spec chain, hoisting expression
// filters ahead of map stages that do not produce any column the filter
// reads. Filtering commutes with such maps (the filter's columns are
// untouched) and doing it earlier shrinks every later stage's input —
// including fan-out maps like extract_words, where each filtered-out row
// saves many emitted rows. Interaction filters never move: their
// placement is semantic.
func HoistFilters(specs []task.Spec) Hoist {
	h := Hoist{Specs: specs}
	// written[k] is the as-written position of h.Specs[k], kept from the
	// first move on; until then h.Specs is the input itself. Hoisting
	// filter i only permutes the chain up to i, so position i still holds
	// specs[i] when visited.
	var written []int
	for i := 1; i < len(specs); i++ {
		if !isExprFilter(specs[i]) {
			continue
		}
		cols, err := expr.ReferencedColumns(specs[i].(*task.FilterSpec).Expression)
		if err != nil {
			continue
		}
		need := make(map[string]bool, len(cols))
		for _, c := range cols {
			need[c] = true
		}
		j := i
		var clash []string
		for ; j > 0; j-- {
			produced, maps := producedColumns(h.Specs[j-1])
			clash = nil
			for _, c := range produced {
				if need[c] {
					clash = append(clash, c)
				}
			}
			if !maps || clash != nil {
				break
			}
			if written == nil {
				h.Specs = append([]task.Spec(nil), specs...)
				written = make([]int, len(specs))
				for k := range written {
					written[k] = k
				}
			}
			h.Specs[j-1], h.Specs[j] = h.Specs[j], h.Specs[j-1]
			written[j-1], written[j] = written[j], written[j-1]
		}
		if j > 0 {
			blocker := j - 1
			if written != nil {
				blocker = written[blocker]
			}
			h.Blocked = append(h.Blocked, BlockedFilter{Index: i, Blocker: blocker, Columns: clash})
		}
	}
	h.Moved = written != nil
	return h
}

// WidgetSource plans a widget's source pipeline: the stages before the
// first interaction-dependent task run once on the server (filters
// hoisted, producing the widget's endpoint data); the rest must re-run
// in the client data cube on every interaction because they depend on
// widget selections. Only pre-aggregated data then crosses to the
// browser — the transfer minimization of §4.1, measured by the E6
// ablation bench.
func WidgetSource(specs []task.Spec) (server, client []task.Spec) {
	for i, sp := range specs {
		if DependsOnInteraction(sp) {
			return HoistFilters(specs[:i]).Specs, specs[i:]
		}
	}
	return HoistFilters(specs).Specs, nil
}

// DependsOnInteraction reports whether a spec reads widget state.
func DependsOnInteraction(sp task.Spec) bool {
	switch t := sp.(type) {
	case *task.FilterSpec:
		return t.SourceWidget != ""
	case *task.ParallelSpec:
		for _, sub := range t.Subs {
			if DependsOnInteraction(sub) {
				return true
			}
		}
	}
	return false
}

// producedColumns returns the columns a stage's maps add. maps is false
// when the stage is not made of maps only — no filter commutes with it.
func producedColumns(sp task.Spec) (cols []string, maps bool) {
	switch t := sp.(type) {
	case *task.MapSpec:
		return t.OutColumns(), true
	case *task.ParallelSpec:
		maps = true
		for _, sub := range t.Subs {
			if ms, ok := sub.(*task.MapSpec); ok {
				cols = append(cols, ms.OutColumns()...)
			} else {
				maps = false
			}
		}
	}
	return cols, maps
}
