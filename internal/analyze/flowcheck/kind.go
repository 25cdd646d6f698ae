// Package flowcheck is the platform's static semantics: a typed
// expression IR over internal/expr with inference on a kind lattice, and
// an abstract-interpretation pass that propagates per-column facts
// (types, constants, numeric intervals) and per-stage cardinality bounds
// through a flow's task chain.
//
// flowlint (internal/analyze) is re-founded on this package: the legacy
// coarse column types ("number", "text", …) are now projections of the
// fine lattice (Type.Coarse), so the historical FL004/FL021 warnings
// keep their exact wording while the finer rules — FL060 type mismatch,
// FL061 vacuous comparison, FL062 null-only operand, FL063 constant
// filter, FL064 dead column — become provable instead of heuristic. The
// exported Facts structure is the contract the cost-based optimizer
// consumes: constants for folding, intervals for selectivity, liveness
// for projection pushdown.
//
// Soundness contract: for every column the checker types, every value
// the engines actually produce in that column must Conform to the
// inferred Type. The differential fuzzer (FuzzFlowcheck) enforces this
// against both the row and columnar engines.
package flowcheck

import "shareinsights/internal/value"

// Kind is one point of the static kind lattice:
//
//	        KAny (top: unknown)
//	   /   /    |    \     \
//	KBool KFloat KString KTime
//	        |
//	      KInt
//	   \   |    |    /     /
//	        KNone (bottom: provably always null)
//
// KInt ⊑ KFloat because the engine's numeric coercion means an integer
// cell is acceptable wherever a float is expected (sum over a float
// column returns Int 0 for all-null groups, bucket snaps to Int for
// integral widths); no other pair of concrete kinds is ordered.
type Kind uint8

// The lattice points. KNone is the type of an expression that is
// provably null on every row; KAny carries no information.
const (
	KNone Kind = iota
	KBool
	KInt
	KFloat
	KString
	KTime
	KAny
)

// String names the kind as docs/TYPES.md spells it.
func (k Kind) String() string {
	switch k {
	case KNone:
		return "none"
	case KBool:
		return "bool"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KString:
		return "string"
	case KTime:
		return "time"
	}
	return "any"
}

// Numeric reports whether the kind participates in numeric arithmetic
// without coercion surprises.
func (k Kind) Numeric() bool { return k == KInt || k == KFloat }

// Type is a static column or expression type: a lattice kind plus an
// orthogonal nullability bit. {KNone, true} is the canonical bottom —
// a KNone value is always null, so its nullability is forced.
type Type struct {
	Kind     Kind `json:"kind"`
	Nullable bool `json:"nullable"`
}

// Unknown is the top type: any kind, possibly null.
func Unknown() Type { return Type{Kind: KAny, Nullable: true} }

// String renders the type with the SQL-ish nullability suffix: "int",
// "float?", "any".
func (t Type) String() string {
	if t.Kind == KNone {
		return "null"
	}
	if t.Nullable {
		return t.Kind.String() + "?"
	}
	return t.Kind.String()
}

// Coarse projects the fine type onto the legacy flowlint vocabulary
// ("number", "text", "boolean", "time", "unknown"), preserving the exact
// wording of the historical FL004/FL021 findings.
func (t Type) Coarse() string {
	switch t.Kind {
	case KInt, KFloat:
		return "number"
	case KString:
		return "text"
	case KBool:
		return "boolean"
	case KTime:
		return "time"
	}
	return "unknown"
}

// CoarseConflict reports whether two types cannot meaningfully meet in a
// comparison under the legacy coarse lattice: both known, different, and
// not the text/time pair (date columns compare against their string
// forms throughout the engine). FL004 and FL021 are defined by this
// predicate, unchanged from the pre-flowcheck linter.
func CoarseConflict(a, b Type) bool {
	ca, cb := a.Coarse(), b.Coarse()
	if ca == "unknown" || cb == "unknown" || ca == cb {
		return false
	}
	if (ca == "time" && cb == "text") || (ca == "text" && cb == "time") {
		return false
	}
	return true
}

// join folds two kinds to their least upper bound.
func joinKind(a, b Kind) Kind {
	if a == b {
		return a
	}
	if a == KNone {
		return b
	}
	if b == KNone {
		return a
	}
	if (a == KInt && b == KFloat) || (a == KFloat && b == KInt) {
		return KFloat
	}
	return KAny
}

// Join returns the least upper bound of two types: the kind join, with
// nullability if either side is nullable. Joining with bottom (KNone,
// an always-null source) makes the result nullable.
func Join(a, b Type) Type {
	nullable := a.Nullable || b.Nullable || a.Kind == KNone || b.Kind == KNone
	return Type{Kind: joinKind(a.Kind, b.Kind), Nullable: nullable}
}

// FromValue returns the exact static type of one runtime value.
func FromValue(v value.V) Type {
	switch v.Kind() {
	case value.Bool:
		return Type{Kind: KBool}
	case value.Int:
		return Type{Kind: KInt}
	case value.Float:
		return Type{Kind: KFloat}
	case value.String:
		return Type{Kind: KString}
	case value.Time:
		return Type{Kind: KTime}
	}
	return Type{Kind: KNone, Nullable: true}
}
