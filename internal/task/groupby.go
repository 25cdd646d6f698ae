package task

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
	"shareinsights/internal/value"
)

// Accumulator folds a bag of values into one value — the paper's "user
// defined aggregates" task category (§4.2 item 2). It is the columnar
// group-by kernel's interface: the kernel folds with the registry's
// accumulators wherever it has no typed loop of its own.
type Accumulator = colstore.Accumulator

// AggregateFactory creates a fresh accumulator per group.
type AggregateFactory func() Accumulator

var (
	aggMu   sync.RWMutex
	aggImpl = map[string]AggregateFactory{
		"sum":            func() Accumulator { return &sumAcc{} },
		"count":          func() Accumulator { return &countAcc{} },
		"avg":            func() Accumulator { return &avgAcc{} },
		"min":            func() Accumulator { return &minAcc{} },
		"max":            func() Accumulator { return &maxAcc{} },
		"count_distinct": func() Accumulator { return &distinctAcc{seen: map[uint64]bool{}} },
		"first":          func() Accumulator { return &firstAcc{} },
		"last":           func() Accumulator { return &lastAcc{} },
		"stddev":         func() Accumulator { return &stddevAcc{} },
		"median":         func() Accumulator { return &medianAcc{} },
	}
)

// RegisterAggregate adds a user-defined aggregate operator. Platform
// aggregates cannot be replaced.
func RegisterAggregate(name string, f AggregateFactory) error {
	aggMu.Lock()
	defer aggMu.Unlock()
	if _, exists := aggImpl[name]; exists {
		return fmt.Errorf("task: aggregate %q already registered", name)
	}
	aggImpl[name] = f
	return nil
}

// Aggregates lists the registered aggregate operators, sorted.
func Aggregates() []string {
	aggMu.RLock()
	defer aggMu.RUnlock()
	out := make([]string, 0, len(aggImpl))
	for n := range aggImpl {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Aggregate returns the factory registered under an aggregate name.
func Aggregate(name string) (AggregateFactory, error) {
	aggMu.RLock()
	defer aggMu.RUnlock()
	f, ok := aggImpl[name]
	if !ok {
		return nil, fmt.Errorf("unknown aggregate operator %q (have %s)", name, strings.Join(Aggregates(), ", "))
	}
	return f, nil
}

type sumAcc struct {
	f       float64
	i       int64
	isFloat bool
	n       int
}

func (a *sumAcc) Add(v value.V) {
	if v.IsNull() {
		return
	}
	a.n++
	if v.Kind() == value.Float {
		a.isFloat = true
	}
	a.f += v.Float()
	a.i += v.Int()
}

func (a *sumAcc) Result() value.V {
	if a.isFloat {
		return value.NewFloat(a.f)
	}
	return value.NewInt(a.i)
}

type countAcc struct{ n int64 }

func (a *countAcc) Add(value.V)     { a.n++ }
func (a *countAcc) Result() value.V { return value.NewInt(a.n) }

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) Add(v value.V) {
	if v.IsNull() {
		return
	}
	a.sum += v.Float()
	a.n++
}
func (a *avgAcc) Result() value.V {
	if a.n == 0 {
		return value.VNull
	}
	return value.NewFloat(a.sum / float64(a.n))
}

type minAcc struct {
	v   value.V
	set bool
}

func (a *minAcc) Add(v value.V) {
	if v.IsNull() {
		return
	}
	if !a.set || value.Less(v, a.v) {
		a.v, a.set = v, true
	}
}
func (a *minAcc) Result() value.V {
	if !a.set {
		return value.VNull
	}
	return a.v
}

type maxAcc struct {
	v   value.V
	set bool
}

func (a *maxAcc) Add(v value.V) {
	if v.IsNull() {
		return
	}
	if !a.set || value.Less(a.v, v) {
		a.v, a.set = v, true
	}
}
func (a *maxAcc) Result() value.V {
	if !a.set {
		return value.VNull
	}
	return a.v
}

type distinctAcc struct{ seen map[uint64]bool }

func (a *distinctAcc) Add(v value.V)   { a.seen[v.Hash()] = true }
func (a *distinctAcc) Result() value.V { return value.NewInt(int64(len(a.seen))) }

type firstAcc struct {
	v   value.V
	set bool
}

func (a *firstAcc) Add(v value.V) {
	if !a.set {
		a.v, a.set = v, true
	}
}
func (a *firstAcc) Result() value.V {
	if !a.set {
		return value.VNull
	}
	return a.v
}

type lastAcc struct {
	v   value.V
	set bool
}

func (a *lastAcc) Add(v value.V) { a.v, a.set = v, true }
func (a *lastAcc) Result() value.V {
	if !a.set {
		return value.VNull
	}
	return a.v
}

// stddevAcc computes population standard deviation with Welford's
// online update.
type stddevAcc struct {
	n    float64
	mean float64
	m2   float64
}

func (a *stddevAcc) Add(v value.V) {
	if v.IsNull() {
		return
	}
	x := v.Float()
	a.n++
	d := x - a.mean
	a.mean += d / a.n
	a.m2 += d * (x - a.mean)
}

func (a *stddevAcc) Result() value.V {
	if a.n == 0 {
		return value.VNull
	}
	return value.NewFloat(math.Sqrt(a.m2 / a.n))
}

// medianAcc keeps all values and sorts at Result — exact, not sketched;
// groups in dashboard workloads are small.
type medianAcc struct{ vals []float64 }

func (a *medianAcc) Add(v value.V) {
	if v.IsNull() {
		return
	}
	a.vals = append(a.vals, v.Float())
}

func (a *medianAcc) Result() value.V {
	if len(a.vals) == 0 {
		return value.VNull
	}
	sort.Float64s(a.vals)
	n := len(a.vals)
	if n%2 == 1 {
		return value.NewFloat(a.vals[n/2])
	}
	return value.NewFloat((a.vals[n/2-1] + a.vals[n/2]) / 2)
}

// ---------------------------------------------------------------------
// GroupBy spec

// AggSpec is one entry of a groupby's aggregates list (Figure 8).
type AggSpec struct {
	// Operator names the aggregate (sum, count, …).
	Operator string
	// ApplyOn is the input column the aggregate folds; optional for
	// count.
	ApplyOn string
	// OutField is the output column name.
	OutField string
}

// GroupBySpec implements the groupby task. With no aggregates configured
// it counts group members into a "count" column, matching Figure 23
// where `groupby: [date, player]` yields the players_tweets schema
// [date, player, count].
type GroupBySpec struct {
	memo
	// GroupBy are the grouping key columns.
	GroupBy []string
	// Aggs are the configured aggregates.
	Aggs []AggSpec
	// OrderByAggregates sorts output by the first aggregate descending
	// (used by the tag cloud pipeline in Appendix A.2).
	OrderByAggregates bool
}

func parseGroupBy(cfg *flowfile.Node) (Spec, error) {
	s := &GroupBySpec{
		GroupBy:           cfg.StrList("groupby"),
		OrderByAggregates: cfg.Bool("orderby_aggregates"),
	}
	if len(s.GroupBy) == 0 {
		return nil, fmt.Errorf("groupby: no groupby columns")
	}
	if aggs := cfg.Get("aggregates"); aggs != nil {
		if aggs.Kind != flowfile.ListNode {
			return nil, fmt.Errorf("groupby: aggregates must be a list")
		}
		for _, it := range aggs.Items {
			a := AggSpec{
				Operator: it.Str("operator"),
				ApplyOn:  it.Str("apply_on"),
				OutField: it.Str("out_field"),
			}
			if it.Bool("orderby_aggregates") {
				s.OrderByAggregates = true
			}
			if a.Operator == "" {
				return nil, fmt.Errorf("groupby: aggregate entry missing operator")
			}
			if _, err := Aggregate(a.Operator); err != nil {
				return nil, fmt.Errorf("groupby: %w", err)
			}
			if a.OutField == "" {
				a.OutField = a.Operator
				if a.ApplyOn != "" {
					a.OutField = a.Operator + "_" + a.ApplyOn
				}
			}
			if a.ApplyOn == "" && a.Operator != "count" {
				return nil, fmt.Errorf("groupby: aggregate %q needs apply_on", a.Operator)
			}
			s.Aggs = append(s.Aggs, a)
		}
	}
	if len(s.Aggs) == 0 {
		s.Aggs = []AggSpec{{Operator: "count", OutField: "count"}}
	}
	return s, nil
}

// Type implements Spec.
func (s *GroupBySpec) Type() string { return "groupby" }

// Out implements Spec: group keys followed by aggregate out_fields.
func (s *GroupBySpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("groupby", in)
	if err != nil {
		return nil, err
	}
	if _, err := one.Schema.Require(s.GroupBy...); err != nil {
		return nil, err
	}
	cols := make([]schema.Column, 0, len(s.GroupBy)+len(s.Aggs))
	for _, g := range s.GroupBy {
		cols = append(cols, schema.Column{Name: g})
	}
	for _, a := range s.Aggs {
		if a.ApplyOn != "" {
			if _, err := one.Schema.Require(a.ApplyOn); err != nil {
				return nil, err
			}
		}
		cols = append(cols, schema.Column{Name: a.OutField})
	}
	return schema.New(cols...)
}

// orderKeys is a groupby's output order (SEMANTICS.md §1.3): the first
// aggregate descending under orderby_aggregates, then the group keys
// ascending.
func (s *GroupBySpec) orderKeys() []table.SortKey {
	keys := make([]table.SortKey, 0, len(s.GroupBy)+1)
	if s.OrderByAggregates && len(s.Aggs) > 0 {
		keys = append(keys, table.SortKey{Column: s.Aggs[0].OutField, Desc: true})
	}
	for _, c := range s.GroupBy {
		keys = append(keys, table.SortKey{Column: c})
	}
	return keys
}

// Exec implements Spec: the kernel over the input's batch.
func (s *GroupBySpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	return execBound(env, s, in, names)
}
