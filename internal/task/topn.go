package task

import (
	"fmt"
	"strconv"
	"strings"

	"shareinsights/internal/flowfile"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/table/colstore"
)

// OrderKey is one "<column> [ASC|DESC]" entry of an orderby_column list.
type OrderKey struct {
	Column string
	Desc   bool
}

func parseOrderKeys(entries []string) ([]OrderKey, error) {
	var keys []OrderKey
	for _, e := range entries {
		fields := strings.Fields(e)
		switch len(fields) {
		case 1:
			keys = append(keys, OrderKey{Column: fields[0]})
		case 2:
			switch strings.ToUpper(fields[1]) {
			case "ASC":
				keys = append(keys, OrderKey{Column: fields[0]})
			case "DESC":
				keys = append(keys, OrderKey{Column: fields[0], Desc: true})
			default:
				return nil, fmt.Errorf("bad order direction %q", fields[1])
			}
		default:
			return nil, fmt.Errorf("bad orderby entry %q", e)
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("empty orderby_column")
	}
	return keys, nil
}

// TopNSpec implements the topn task (Appendix A.1 "topwords"): within
// each group, keep the first `limit` rows by the given order.
type TopNSpec struct {
	memo
	// GroupBy are the partitioning columns; empty means one global group.
	GroupBy []string
	// OrderBy ranks rows within a group.
	OrderBy []OrderKey
	// Limit is the per-group row budget.
	Limit int
}

func parseTopN(cfg *flowfile.Node) (Spec, error) {
	s := &TopNSpec{GroupBy: cfg.StrList("groupby")}
	var err error
	if s.OrderBy, err = parseOrderKeys(cfg.StrList("orderby_column")); err != nil {
		return nil, fmt.Errorf("topn: %w", err)
	}
	lim := cfg.Str("limit")
	if lim == "" {
		return nil, fmt.Errorf("topn: missing limit")
	}
	if s.Limit, err = strconv.Atoi(lim); err != nil || s.Limit < 1 {
		return nil, fmt.Errorf("topn: bad limit %q", lim)
	}
	return s, nil
}

// Type implements Spec.
func (s *TopNSpec) Type() string { return "topn" }

// Out implements Spec: topn preserves columns.
func (s *TopNSpec) Out(in []Input) (*schema.Schema, error) {
	one, err := singleInput("topn", in)
	if err != nil {
		return nil, err
	}
	if _, err := one.Schema.Require(s.GroupBy...); err != nil {
		return nil, err
	}
	for _, k := range s.OrderBy {
		if _, err := one.Schema.Require(k.Column); err != nil {
			return nil, err
		}
	}
	return one.Schema, nil
}

// Exec implements Spec (SEMANTICS.md §6): a global topn on its kernel,
// a partitioned one over the input's batch, its groups in their key
// order, each its first rows of the stable sort.
func (s *TopNSpec) Exec(env *Env, in []*table.Table, names []string) (*table.Table, error) {
	if len(s.GroupBy) == 0 {
		return execBound(env, s, in, names)
	}
	if _, err := s.Out(inputsOf(in, names)); err != nil {
		return nil, err
	}
	groups, _ := in[0].Schema().Require(s.GroupBy...)
	b, _ := colstore.FromTable(in[0])
	out, err := colstore.GroupTopN(b, groups, sortKeys(s.OrderBy), s.Limit)
	if err != nil {
		return nil, err
	}
	return out.ToTable(), nil
}
