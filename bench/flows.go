package main

import "fmt"

// sumTask is a single-key group-by summing one column into `total`.
func sumTask(name, key, col string) string {
	return fmt.Sprintf(`  %s:
    type: groupby
    groupby: [%s]
    aggregates:
      - operator: sum
        apply_on: %s
        out_field: total
`, name, key, col)
}

// refreshFlow is serve_refresh's dashboard: filter -> map-expr -> two
// group-bys -> top-n over the uploaded CSV, two endpoints, three widgets.
func refreshFlow(minQty int) string {
	return fmt.Sprintf(`D:
  sales: [region, product, channel, amount, qty]

D.sales:
  source: data:sales.csv
  format: csv

F:
  D.scored: D.sales | T.keep | T.revenue
  +D.by_region: D.scored | T.sum_region
  D.by_product: D.scored | T.sum_product
  +D.top_products: D.by_product | T.top

T:
  keep:
    type: filter_by
    filter_expression: qty > %d
  revenue:
    type: map
    operator: expr
    expression: amount * qty
    output: revenue
%s%s  top:
    type: topn
    orderby_column: [total DESC]
    limit: %d

W:
  regions:
    type: BarChart
    source: D.by_region
    x: region
    y: total
  share:
    type: Pie
    source: D.by_region
    text: region
    size: total
  leaders:
    type: Grid
    source: D.top_products

L:
  description: Sales refresh
  rows:
    - [span6: W.regions, span6: W.share]
    - [span12: W.leaders]
`, minQty, sumTask("sum_region", "region", "revenue"), sumTask("sum_product", "product", "revenue"), refreshTopN)
}

// hotFlow is serve_hot's dashboard: a picker whose selection filters two
// dependents. Both dependents are a widget filter followed by one
// single-key sum, the shape dashboard.compileCubePlan accelerates, so a
// selection refreshes through the cube.
const hotFlow = `D:
  sales: [region, product, amount]

D.sales:
  source: data:sales.csv
  format: csv

F:
  +D.by_region: D.sales | T.sum_region
  +D.by_region_product: D.sales | T.sum_region_product

T:
  sum_region:
    type: groupby
    groupby: [region]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  sum_region_product:
    type: groupby
    groupby: [region, product]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
  pick:
    type: filter_by
    filter_by: [region]
    filter_source: W.picker
    filter_val: [text]
  per_product:
    type: groupby
    groupby: [product]
    aggregates:
      - operator: sum
        apply_on: total
        out_field: total

W:
  picker:
    type: List
    source: D.by_region
    text: region
  detail:
    type: Grid
    source: D.by_region_product | T.pick | T.per_product
  chart:
    type: BarChart
    source: D.by_region_product | T.pick | T.per_product
    x: product
    y: total

L:
  description: Sales by region
  rows:
    - [span3: W.picker, span9: W.chart]
    - [span12: W.detail]
`

// authorFlow is author_durable's dashboard, the size of a dashboard
// somebody is actually working on: seven flows, nine tasks, six widgets.
// A save edits only the `limit:` of the last task, so every node upstream
// of D.leaders keeps its signature and is served by
// dashboard.ResultCache on the re-run.
func authorFlow(limit int) string {
	return fmt.Sprintf(`D:
  sales: [region, product, amount]

D.sales:
  source: data:sales.csv
  format: csv

F:
  D.big: D.sales | T.keep
  +D.by_region: D.big | T.sum_region
  D.by_product: D.big | T.sum_product
  D.by_pair: D.big | T.sum_pair
  +D.busiest: D.by_pair | T.top_pairs
  +D.laggards: D.by_product | T.bottom
  +D.leaders: D.by_product | T.top

T:
  keep:
    type: filter_by
    filter_expression: amount > 0
%s%s  sum_pair:
    type: groupby
    groupby: [region, product]
    aggregates:
      - operator: sum
        apply_on: amount
        out_field: total
      - operator: count
        out_field: orders
  top_pairs:
    type: topn
    orderby_column: [total DESC]
    limit: 12
  bottom:
    type: topn
    orderby_column: [total ASC]
    limit: 5
  pick:
    type: filter_by
    filter_by: [region]
    filter_source: W.regions
    filter_val: [x]
  top:
    type: topn
    orderby_column: [total DESC]
    limit: %d

W:
  regions:
    type: BarChart
    source: D.by_region
    x: region
    y: total
  share:
    type: Pie
    source: D.by_region
    text: region
    size: total
  leaders:
    type: Grid
    source: D.leaders
  laggards:
    type: Grid
    source: D.laggards
  busiest:
    type: Grid
    source: D.busiest
  in_region:
    type: Grid
    source: D.by_pair | T.pick

L:
  description: Authoring loop
  rows:
    - [span6: W.regions, span6: W.share]
    - [span4: W.leaders, span4: W.laggards, span4: W.busiest]
    - [span12: W.in_region]
`, sumTask("sum_region", "region", "amount"), sumTask("sum_product", "product", "amount"), limit)
}

// joinFlow is batch_join's pipeline, the shape of examples/apache:
// map-expr -> inner join with the dimension -> filter -> three group-bys
// -> sort / top-n, and the latest joined rows themselves ranked by
// weight: a multi-sink DAG whose join and sort run on the row kernels. Sources are sbin over mem:, so no
// text decoding is on the path.
var joinFlow = fmt.Sprintf(`D:
  facts: [project, year, noOfBugs, noOfCheckins, noOfEmailsTotal,
    noOfContributors, noOfReleases]
  project_meta: [project, technology]

D.facts:
  source: mem:facts.sbin
  format: sbin

D.project_meta:
  source: mem:meta.sbin
  format: sbin

F:
  D.activity: D.facts | T.weight
  D.joined: (D.activity, D.project_meta) | T.join_meta | T.recent
  +D.by_project: D.joined | T.sum_project | T.top_projects
  +D.by_tech: D.joined | T.sum_tech | T.order_tech
  +D.by_year: D.joined | T.sum_year
  +D.ranked: D.joined | T.latest | T.order_rows | T.first_rows

T:
  weight:
    type: map
    operator: expr
    expression: noOfCheckins * 2 + noOfBugs + noOfContributors * 5 + noOfReleases * 20
    output: total_wt
  join_meta:
    type: join
    left: activity by project
    right: project_meta by project
    join_condition: inner
    project:
      activity_project: project
      activity_year: year
      project_meta_technology: technology
      activity_total_wt: total_wt
      activity_noOfCheckins: noOfCheckins
      activity_noOfBugs: noOfBugs
      activity_noOfReleases: noOfReleases
  recent:
    type: filter_by
    filter_expression: year >= %d
%s%s%s  top_projects:
    type: topn
    orderby_column: [total DESC]
    limit: %d
  order_tech:
    type: sort
    orderby_column: [total DESC]
  latest:
    type: filter_by
    filter_expression: year >= %d
  order_rows:
    type: sort
    orderby_column: [total_wt DESC]
  first_rows:
    type: limit
    limit: %d

W:
  projects:
    type: Grid
    source: D.by_project
  technologies:
    type: BarChart
    source: D.by_tech
    x: technology
    y: total
  years:
    type: LineChart
    source: D.by_year
    x: year
    y: total
  busiest:
    type: Grid
    source: D.ranked

L:
  description: Project activity
  rows:
    - [span6: W.technologies, span6: W.years]
    - [span6: W.projects, span6: W.busiest]
`, joinMinYear, sumTask("sum_project", "project", "total_wt"), sumTask("sum_tech", "technology", "total_wt"),
	sumTask("sum_year", "year", "total_wt"), joinTopProjects, joinRankYear, joinRankedRows)
