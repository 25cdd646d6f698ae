package main

import (
	"bufio"
	"bytes"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of GET /metrics: series (name plus label set, as
// exposed) -> value.
type scrape map[string]float64

func parseScrape(body []byte) scrape {
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

// sum adds every series of family name whose label set contains all of
// want (`route="GET /x"` fragments).
func (s scrape) sum(name string, want ...string) float64 {
	total := 0.0
series:
	for k, v := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, w := range want {
			if !strings.Contains(k, w) {
				continue series
			}
		}
		total += v
	}
	return total
}

// routes maps a step name to the route pattern its requests are counted
// under in si_http_request_duration_seconds.
var routes = map[string]string{
	"put_data": "PUT /dashboards/{name}/data/{file}",
	"run":      "POST /dashboards/{name}/run",
	"html":     "GET /dashboards/{name}/html",
	"select":   "POST /dashboards/{name}/select/{widget}",
	"adhoc":    "GET /dashboards/{name}/ds/{ds}/groupby/{col}/{agg}/{vcol}",
	"save":     "PUT /dashboards/{name}",
	"stats":    "GET /dashboards/{name}/stats",
}

// facadeLayer is the module a batch_join step's own time belongs to:
// there is no server between the caller and the library.
var facadeLayer = map[string]string{"parse": "flowfile", "compile": "dashboard", "run": "dashboard", "render": "dashboard"}

// layerTable is one workload's row of bench/out/layers.json: where a
// measured cycle's wall time went, module by module.
type layerTable struct {
	Workload string `json:"workload"`
	Cycles   int    `json:"traced_cycles"`
	// CycleMS is the mean wall time of a traced cycle: the sum of its
	// client spans.
	CycleMS float64 `json:"cycle_ms"`
	// SelfMS is each layer's self time per cycle; Share divides it by
	// CycleMS.
	SelfMS map[string]float64 `json:"self_ms_per_op"`
	Share  map[string]float64 `json:"share"`
	// UnattributedMS is what no layer accounts for: on the serve
	// workloads the time between the client's clock and the handler's
	// (transport, the HTTP stack, the client's own encode and decode).
	UnattributedMS    float64 `json:"unattributed_ms_per_op"`
	UnattributedShare float64 `json:"unattributed_share"`
	// ReplayMS is the layer replay: function -> ms per cycle.
	ReplayMS map[string]float64 `json:"replay_ms_per_op"`
}

// traceFacts is what the traced section measured besides spans.
type traceFacts struct {
	cycles   int
	before   scrape // GET /metrics around the traced section; nil without a server
	after    scrape
	walBytes map[string]float64 // component -> bytes its journal and snapshots wrote
	batch    bool               // batch_join: facade calls, no routes
}

// attribute turns the recorded spans into per-layer self times and the
// span-derived per-layer metrics.
//
// Measured spans (client spans and the program's own trace under them)
// give self times directly: a span minus what its children cover. Replay
// spans are then carved out of the interval their host names: a request's
// remainder outside the run span, the run span's own self time, or
// another replayed call. What is left of a request inside the handler
// (route time from /metrics minus everything attributed) is the server
// layer's; what is left outside the handler is unattributed.
func attribute(name string, spans []span, tf traceFacts) (*layerTable, map[string]float64) {
	n := float64(tf.cycles)
	perOp := func(d time.Duration) float64 { return ms(d) / n }
	self := selfTimes(spans)
	lt := &layerTable{Workload: name, Cycles: tf.cycles, SelfMS: map[string]float64{}, Share: map[string]float64{}, ReplayMS: map[string]float64{}}
	m := map[string]float64{}

	clientMS, residualMS := map[string]float64{}, map[string]float64{}
	runSelf, nodeSelf := 0.0, 0.0
	var stages, columnar, nodes, cacheHits float64
	type fnKey struct{ name, layer, host string }
	perIter := map[fnKey]map[int]float64{}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Host != "":
			k := fnKey{s.Name, s.Layer, s.Host}
			if perIter[k] == nil {
				perIter[k] = map[int]float64{}
			}
			perIter[k][s.Cycle] += ms(s.Dur)
			continue
		case s.Layer == layerCycle:
			continue
		case s.Layer == layerClient:
			_, step, _ := strings.Cut(s.Name, " ")
			clientMS[step] += perOp(s.Dur)
			residualMS[step] += perOp(self[i])
			lt.CycleMS += perOp(s.Dur)
			continue
		}
		lt.SelfMS[s.Layer] += perOp(self[i])
		kind, rest, _ := strings.Cut(s.Name, " ")
		switch kind {
		case "run":
			runSelf += perOp(self[i])
		case "fetch":
			m["connector.fetch_ms_per_op"] += perOp(s.Dur)
		case "source":
			m["connector.decode_ms_per_op"] += perOp(s.Dur)
			m["connector.rows_decoded_per_op"] += float64(s.Args["rows_out"]) / n
		case "node":
			nodes++
			if s.Args["cache_hit"] == 1 {
				cacheHits++
				break
			}
			nodeSelf += perOp(self[i])
			m["batch.exec_ms_per_op"] += perOp(s.Dur)
			m["batch.queue_wait_ms_per_op"] += float64(s.Args["queue_wait_us"]) / 1000 / n
		case "stage":
			stages++
			m["batch.stage_busy_ms_per_op"] += perOp(s.Dur)
			m["batch.rows_in_per_op"] += float64(s.Args["rows_in"]) / n
			m["batch.fallbacks_per_op"] += float64(s.Args["fallback"]) / n
			switch op, _, _ := strings.Cut(rest, " "); {
			case s.Layer == "colstore":
				columnar++
			case op == "join":
				m["task.join_ms_per_op"] += perOp(s.Dur)
			case op == "sort" || op == "topn":
				m["task.sort_ms_per_op"] += perOp(s.Dur)
			default:
				m["task.row_stage_ms_per_op"] += perOp(s.Dur)
			}
		case "widget":
			if strings.HasSuffix(s.Name, " render") {
				m["dashboard.widget_refresh_ms_per_op"] += perOp(s.Dur)
			}
		}
	}
	m["connector.decode_ms_per_op"] -= m["connector.fetch_ms_per_op"]
	if stages > 0 {
		m["batch.columnar_stage_ratio"] = columnar / stages
	}
	if nodes > 0 {
		m["dashboard.node_cache_hit_ratio"] = cacheHits / nodes
	}

	// The replay: a function's cost per cycle is the median over the
	// iterations of what it took within one iteration.
	hosted := map[string]float64{} // host -> ms per cycle carved out of it
	fnMS := map[fnKey]float64{}
	for k, it := range perIter {
		vals := make([]float64, 0, len(it))
		for _, v := range it {
			vals = append(vals, v)
		}
		fnMS[k] = median(vals)
		lt.ReplayMS[k.name] += fnMS[k]
		if k.host != hostNone {
			hosted[k.host] += fnMS[k]
		}
	}
	for k, v := range fnMS {
		if k.host != hostNone {
			lt.SelfMS[k.layer] += max(0, v-hosted[k.name])
		}
	}
	carved := min(runSelf, hosted[hostRunSelf])
	lt.SelfMS["dashboard"] -= carved
	m["dashboard.run_self_ms_per_op"] = runSelf - carved
	lt.SelfMS["batch"] -= min(nodeSelf, hosted[hostNodeSelf])

	steps := make([]string, 0, len(clientMS))
	for step := range clientMS {
		steps = append(steps, step)
	}
	sort.Strings(steps)
	for _, step := range steps {
		rest := max(0, residualMS[step]-hosted[step])
		if tf.batch {
			lt.SelfMS[facadeLayer[step]] += rest
			continue
		}
		inner := clientMS[step] - rest
		route := routes[step]
		count := tf.after.sum("si_http_request_duration_seconds_count", `route="`+route+`"`) -
			tf.before.sum("si_http_request_duration_seconds_count", `route="`+route+`"`)
		handler := inner
		if count > 0 {
			handler = 1000 * (tf.after.sum("si_http_request_duration_seconds_sum", `route="`+route+`"`) -
				tf.before.sum("si_http_request_duration_seconds_sum", `route="`+route+`"`)) / count
		}
		lt.SelfMS["server"] += max(0, handler-inner)
		lt.UnattributedMS += max(0, clientMS[step]-max(handler, inner))
	}
	m["server.overhead_ms_per_op"] = lt.SelfMS["server"]
	if lt.CycleMS > 0 {
		for l, v := range lt.SelfMS {
			lt.Share[l] = v / lt.CycleMS
		}
		lt.UnattributedShare = lt.UnattributedMS / lt.CycleMS
	}
	m["trace.unattributed_share"] = lt.UnattributedShare

	for metric, fn := range map[string]string{
		"table.fingerprint_ms_per_op":   "table.Fingerprint",
		"colstore.from_table_ms_per_op": "colstore.FromTable",
		"colstore.to_table_ms_per_op":   "colstore.ToTable",
		"colstore.filter_ms_per_op":     "colstore.Filter.Run",
		"colstore.mapexpr_ms_per_op":    "colstore.MapExpr.Run",
		"colstore.groupby_ms_per_op":    "colstore.GroupBy.Run",
		"colstore.topn_ms_per_op":       "colstore.TopN.Run",
		"flowfile.parse_ms_per_op":      "flowfile.Parse",
		"flowfile.validate_ms_per_op":   "flowfile.Validate",
		"analyze.lint_ms_per_op":        "analyze.LintWithFacts",
		"dag.build_ms_per_op":           "dag.Build",
		"dag.optimize_ms_per_op":        "dag.Optimize",
		"dashboard.compile_ms_per_op":   "dashboard.Compile",
		"dashboard.select_ms_per_op":    "dashboard.Select",
		"dashboard.adhoc_ms_per_op":     "dashboard.AdhocQuery",
		"cube.bind_ms_per_op":           "cube.New",
		"widget.render_ms_per_op":       "widget.RenderHTML",
	} {
		m[metric] = lt.ReplayMS[fn]
	}
	for metric, fn := range map[string]string{
		"cube.filter_refresh_us_per_op": "cube.Dimension.Filter",
		"admission.acquire_us_per_op":   "admission.Gate.Acquire",
		"admission.cache_do_us_per_op":  "admission.ResultCache.Do",
		"vcs.commit_us_per_op":          "vcs.Repo.Commit",
		"history.record_us_per_op":      "history.Recorder.Record",
	} {
		m[metric] = 1000 * lt.ReplayMS[fn]
	}
	for fn, v := range lt.ReplayMS {
		if strings.HasPrefix(fn, "store.Dir.Append(") {
			m["store.append_us_per_op"] += 1000 * v
		}
	}

	// Counts, from the program's own counters around the traced section.
	if tf.after != nil {
		delta := func(name string, want ...string) float64 {
			return tf.after.sum(name, want...) - tf.before.sum(name, want...)
		}
		m["admission.queue_wait_ms_per_op"] = 1000 * delta("si_admission_queue_wait_seconds_sum") / n
		shed, admitted := delta("si_admission_shed_total"), delta("si_admission_admitted_total")
		if shed+admitted > 0 {
			m["admission.shed_ratio"] = shed / (shed + admitted)
		}
		hits := delta("si_result_cache_hits_total")
		if lookups := hits + delta("si_result_cache_misses_total") + delta("si_result_cache_collapsed_total"); lookups > 0 {
			m["admission.result_cache_hit_ratio"] = hits / lookups
		}
		m["store.fsyncs_per_op"] = delta("si_store_fsyncs_total") / n
		m["store.snapshots_per_kop"] = 1000 * delta("si_store_snapshots_total") / n
		for component, b := range tf.walBytes {
			m["store.bytes_written_per_op"] += b / n
			if component == "history" {
				m["history.wal_bytes_per_op"] = b / n
			}
		}
	}
	return lt, m
}

// walMeter adds up what the store wrote, from the two gauges it exposes
// per component: the current WAL segment's size, which restarts when a
// snapshot supersedes the segment, and the newest snapshot's size.
type walMeter struct {
	last  map[string]float64 // component -> si_store_wal_bytes at the previous reading
	total map[string]float64 // component -> bytes written since the first reading
}

func (m *walMeter) observe(sys *system) error {
	sc, err := sys.scrape()
	if err != nil {
		return err
	}
	const family = `si_store_wal_bytes{component="`
	for series, cur := range sc {
		component, ok := strings.CutPrefix(series, family)
		if !ok {
			continue
		}
		component = strings.TrimSuffix(component, `"}`)
		if prev := m.last[component]; cur >= prev {
			m.total[component] += cur - prev
		} else {
			m.total[component] += cur + sc[`si_store_snapshot_bytes{component="`+component+`"}`]
		}
		m.last[component] = cur
	}
	return nil
}
