package flowcheck

// Facts is the stable analysis export: one record per named data object,
// plus the dead-column list. `shareinsights check` and
// GET /dashboards/{name}/check serialize it, and the cost-based
// optimizer consumes it — constants for folding, intervals for
// selectivity estimates, liveness for projection pushdown. Field names
// are a compatibility contract; extend, don't rename.
type Facts struct {
	Objects map[string]*ObjectFacts `json:"objects"`
	Dead    []DeadColumn            `json:"dead,omitempty"`
}

// ObjectFacts describes one named data object at the point it is
// produced.
type ObjectFacts struct {
	// Producer is the flow (task chain) that writes the object, or
	// "source" for connector-fetched data.
	Producer string `json:"producer,omitempty"`
	// Columns maps column names to their facts.
	Columns map[string]ColumnFacts `json:"columns"`
	// Card bounds the object's row count.
	Card Card `json:"card"`
	// Verdict is "always_true"/"always_false" when the producing stage is
	// a filter with a proven constant predicate.
	Verdict string `json:"filter_verdict,omitempty"`
	// Live lists the columns some downstream consumer actually reads,
	// sorted; nil when liveness was not computed for the object.
	Live []string `json:"live,omitempty"`
}

// ColumnFacts is the wire form of one column's ColFact.
type ColumnFacts struct {
	// Type is the rendered static type ("int", "float?", "any", "null").
	Type string `json:"type"`
	// Const is the display form of the column's proven constant value;
	// ConstKind disambiguates it ("int" 5 vs "string" "5").
	Const     *string `json:"const,omitempty"`
	ConstKind string  `json:"const_kind,omitempty"`
	// Lo/Hi bound every non-null cell of a numeric column.
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
}

// DeadColumn is one column no downstream consumer reads.
type DeadColumn struct {
	Object string `json:"object"`
	Column string `json:"column"`
	// Computed distinguishes a column a task computed (FL064 finding
	// material) from one merely fetched from a source (pushdown fact
	// only).
	Computed bool `json:"computed"`
}

// ScopeFacts converts a scope to its wire form.
func ScopeFacts(sc Scope) map[string]ColumnFacts {
	out := make(map[string]ColumnFacts, len(sc))
	for col, f := range sc {
		cf := ColumnFacts{Type: f.Type.String()}
		if f.Const != nil {
			s := f.Const.String()
			cf.Const = &s
			cf.ConstKind = f.Const.Kind().String()
		}
		if f.Ivl != nil {
			if f.Ivl.HasLo {
				lo := f.Ivl.Lo
				cf.Lo = &lo
			}
			if f.Ivl.HasHi {
				hi := f.Ivl.Hi
				cf.Hi = &hi
			}
		}
		out[col] = cf
	}
	return out
}
