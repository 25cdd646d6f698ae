package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"shareinsights/internal/connector"
	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// The generators below are the only source of inputs: a workload sees
// the bytes they return and nothing else of the seed. Each one folds the
// reference answer in plain Go (maps and int64 sums, no engine code)
// while it writes the rows, so a served cell can be checked against a
// number the system under test never touched.

// payload is one generated request body with its digest; the digest
// stands in for the body in the op-sequence hash so a 1 MB upload is not
// rehashed on every cycle.
type payload struct {
	body   []byte
	digest uint64
}

func newPayload(b []byte) payload {
	h := fnv.New64a()
	h.Write(b)
	return payload{body: b, digest: h.Sum64()}
}

// totals is a group-by reference: key -> exact integer sum.
type totals map[string]int64

// top returns the n largest sums in descending order: the values a
// top-n over the group-by must serve, whatever order ties come in.
func (t totals) top(n int) []int64 {
	out := make([]int64, 0, len(t))
	for _, v := range t {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// ---------------------------------------------------------------------
// serve_refresh: region, product, channel, amount, qty

const (
	refreshRows      = 30000
	refreshRegions   = 8
	refreshProducts  = 200
	refreshVariants  = 2
	refreshBoards    = 4
	refreshTopN      = 10
	refreshMaxMinQty = 3 // dashboards filter qty > 1, 2 or 3
)

// refreshRef holds, per minimum quantity, revenue (amount*qty) summed by
// region and by product over the rows the filter keeps.
type refreshRef struct {
	byRegion  [refreshMaxMinQty + 1]totals
	byProduct [refreshMaxMinQty + 1]totals
}

func genRefreshCSV(rng *rand.Rand) (payload, *refreshRef) {
	ref := &refreshRef{}
	for q := 1; q <= refreshMaxMinQty; q++ {
		ref.byRegion[q], ref.byProduct[q] = totals{}, totals{}
	}
	channels := []string{"web", "store", "partner", "phone"}
	var sb strings.Builder
	sb.Grow(refreshRows * 32)
	for i := 0; i < refreshRows; i++ {
		region := "r" + strconv.Itoa(rng.Intn(refreshRegions))
		product := "p" + strconv.Itoa(rng.Intn(refreshProducts))
		amount := int64(1 + rng.Intn(500))
		qty := int64(1 + rng.Intn(9))
		fmt.Fprintf(&sb, "%s,%s,%s,%d,%d\n", region, product, channels[rng.Intn(len(channels))], amount, qty)
		for q := 1; q <= refreshMaxMinQty; q++ {
			if qty > int64(q) {
				ref.byRegion[q][region] += amount * qty
				ref.byProduct[q][product] += amount * qty
			}
		}
	}
	return newPayload([]byte(sb.String())), ref
}

// ---------------------------------------------------------------------
// serve_hot and author_durable: region, product, amount

// salesRef is the reference for the small sales table: amount summed by
// region, by product, and by (region, product).
type salesRef struct {
	byRegion        totals
	byProduct       totals
	byRegionProduct map[string]totals // region -> product -> sum
}

func genSalesCSV(rng *rand.Rand, rows, regions, products int) (payload, *salesRef) {
	ref := &salesRef{byRegion: totals{}, byProduct: totals{}, byRegionProduct: map[string]totals{}}
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		// The first rows walk every region so each selection key exists.
		r := i
		if i >= regions {
			r = rng.Intn(regions)
		}
		region := "r" + strconv.Itoa(r)
		product := "p" + strconv.Itoa(rng.Intn(products))
		amount := int64(1 + rng.Intn(1000))
		fmt.Fprintf(&sb, "%s,%s,%d\n", region, product, amount)
		ref.byRegion[region] += amount
		ref.byProduct[product] += amount
		if ref.byRegionProduct[region] == nil {
			ref.byRegionProduct[region] = totals{}
		}
		ref.byRegionProduct[region][product] += amount
	}
	return newPayload([]byte(sb.String())), ref
}

// ---------------------------------------------------------------------
// batch_join: the Apache-shaped fact and dimension tables, sbin-encoded

const (
	joinFactRows    = 60000
	joinProjects    = 520 // the last 20 have no dimension row: the inner join drops them
	joinDimRows     = 500
	joinTechs       = 12
	joinMinYear     = 2008 // the flow keeps year >= joinMinYear
	joinTopProjects = 20
	joinRankYear    = 2013 // D.ranked sorts the joined rows from this year on by weight
	joinRankedRows  = 50   // and keeps this many of the heaviest
)

// joinRef is the reference for the join flow: total_wt summed by
// project, technology and year over joined rows that pass the filter.
type joinRef struct {
	byProject, byTech, byYear totals
	// weights is the total_wt of every joined row from joinRankYear on:
	// D.ranked serves the largest of them.
	weights []int64
}

func genJoinTables(rng *rand.Rand) (facts, dim []byte, ref *joinRef) {
	ref = &joinRef{byProject: totals{}, byTech: totals{}, byYear: totals{}}
	tech := make([]string, joinDimRows)
	dimT := table.New(schema.MustFromNames("project", "technology"))
	for p := 0; p < joinDimRows; p++ {
		tech[p] = "tech" + strconv.Itoa(rng.Intn(joinTechs))
		dimT.AppendValues(value.NewString("proj"+strconv.Itoa(p)), value.NewString(tech[p]))
	}
	factT := table.New(schema.MustFromNames("project", "year", "noOfBugs", "noOfCheckins",
		"noOfEmailsTotal", "noOfContributors", "noOfReleases"))
	for i := 0; i < joinFactRows; i++ {
		p := rng.Intn(joinProjects)
		year := int64(2004 + rng.Intn(11))
		bugs, checkins := int64(rng.Intn(200)), int64(rng.Intn(1000))
		emails, contributors, releases := int64(rng.Intn(5000)), int64(1+rng.Intn(60)), int64(rng.Intn(6))
		factT.AppendValues(value.NewString("proj"+strconv.Itoa(p)), value.NewInt(year), value.NewInt(bugs),
			value.NewInt(checkins), value.NewInt(emails), value.NewInt(contributors), value.NewInt(releases))
		if p >= joinDimRows || year < joinMinYear {
			continue
		}
		wt := checkins*2 + bugs + contributors*5 + releases*20
		ref.byProject["proj"+strconv.Itoa(p)] += wt
		ref.byTech[tech[p]] += wt
		ref.byYear[strconv.FormatInt(year, 10)] += wt
		if year >= joinRankYear {
			ref.weights = append(ref.weights, wt)
		}
	}
	return connector.EncodeSBIN(factT), connector.EncodeSBIN(dimT), ref
}
