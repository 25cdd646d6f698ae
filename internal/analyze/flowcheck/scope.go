package flowcheck

import (
	"math"

	"shareinsights/internal/value"
)

// Interval bounds a numeric column or expression: Lo ≤ v ≤ Hi on every
// non-null cell, with each bound optional. Intervals come from literal
// points, filter conjuncts (`amount > 10` narrows amount downstream) and
// a few transfer functions (count is ≥ 1 per group); the comparison
// folder and FL063 consume them.
type Interval struct {
	Lo, Hi       float64
	HasLo, HasHi bool
}

// point returns the degenerate interval [f, f].
func point(f float64) *Interval { return &Interval{Lo: f, Hi: f, HasLo: true, HasHi: true} }

// intersect narrows a with b in place, returning a (nil inputs pass the
// other side through).
func intersect(a, b *Interval) *Interval {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := *a
	if b.HasLo && (!out.HasLo || b.Lo > out.Lo) {
		out.Lo, out.HasLo = b.Lo, true
	}
	if b.HasHi && (!out.HasHi || b.Hi < out.Hi) {
		out.Hi, out.HasHi = b.Hi, true
	}
	return &out
}

// ColFact is everything the checker knows about one column at one point
// of a pipeline.
type ColFact struct {
	// Type is the inferred static type.
	Type Type
	// Const, when non-nil, is the value of every row's cell — constant
	// propagation from `constant` map operators and equality filters.
	Const *value.V
	// Ivl, when non-nil, bounds every non-null cell of a numeric column.
	Ivl *Interval
}

// Scope maps column names to facts for one data object or pipeline
// position. A column absent from the scope is fully unknown — source
// columns start that way because connector payloads are typed
// dynamically.
type Scope map[string]ColFact

// TypeOf returns the column's type, Unknown for untracked columns.
func (s Scope) TypeOf(col string) Type {
	if f, ok := s[col]; ok {
		return f.Type
	}
	return Unknown()
}

// clone returns a shallow copy the caller may mutate.
func (s Scope) clone() Scope {
	out := make(Scope, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Card bounds a data object's row count: Min ≤ rows, and rows ≤ Max
// unless Unbounded. Sources start [0, ∞); limits and constant-false
// filters tighten it; fan-out maps (extract_words) widen it back.
type Card struct {
	Min       int64 `json:"min"`
	Max       int64 `json:"max"`
	Unbounded bool  `json:"unbounded,omitempty"`
}

// CardUnknown is the no-information bound [0, ∞).
func CardUnknown() Card { return Card{Unbounded: true} }

// capMax clamps the upper bound to n (a limit stage).
func (c Card) capMax(n int64) Card {
	out := c
	if out.Min > n {
		out.Min = n
	}
	if out.Unbounded || out.Max > n {
		out.Unbounded = false
		out.Max = n
	}
	return out
}

// dropMin forgets the lower bound (a filter may discard every row).
func (c Card) dropMin() Card { c.Min = 0; return c }

// collapse reports at-least-one-group semantics: groupby and distinct
// emit ≥ 1 row iff their input has ≥ 1 row, and never more rows than
// they read.
func (c Card) collapse() Card {
	if c.Min > 1 {
		c.Min = 1
	}
	return c
}

// addCard saturating-sums two bounds (union).
func addCard(a, b Card) Card {
	out := Card{Min: satAdd(a.Min, b.Min)}
	if a.Unbounded || b.Unbounded {
		out.Unbounded = true
		return out
	}
	out.Max = satAdd(a.Max, b.Max)
	return out
}

// mulCard saturating-multiplies bounds plus slack rows — the sound join
// envelope: an inner join emits ≤ l*r rows, outer joins add up to one
// row per unmatched input row on the preserved sides.
func mulCard(a, b Card) Card {
	if a.Unbounded || b.Unbounded {
		return Card{Unbounded: true}
	}
	return Card{Max: satAdd(satMul(a.Max, b.Max), satAdd(a.Max, b.Max))}
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}
