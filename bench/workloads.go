package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"shareinsights"
	"shareinsights/internal/admission"
	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/server"
	"shareinsights/internal/store"
	"shareinsights/internal/vcs"
)

// workload is one closed-loop traffic mix. Names are fixed: later
// issues refer to them.
type workload struct {
	name string
	// cyclesPerSecond sizes the measured section: cycles = this x
	// -seconds. It was calibrated once, at the commit that added the
	// benchmark, so that the section takes about -seconds there; it is
	// frozen so that every later commit runs the same number of ops.
	cyclesPerSecond float64
	// dashboards is how many dashboards the cycle rotates over: the
	// warm-up runs each at least historyPriming times.
	dashboards int
	setup      func(seed int64, dataDir string) (*env, error)
}

var workloads = []workload{
	{"serve_refresh", 10, refreshBoards, setupRefresh},
	{"serve_hot", 1000, hotBoards, setupHot},
	{"author_durable", 220, authorBoards, setupAuthor},
	{"batch_join", 10.5, 1, setupJoin},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var runOK = []byte(`"status":"ok"`)

// postRun issues POST /run and requires a clean (not degraded, not
// failed) run.
func postRun(sys *system, dash string) (http.Header, error) {
	b, hdr, err := sys.call("run", http.MethodPost, "/dashboards/"+dash+"/run", payload{})
	if err != nil {
		return nil, err
	}
	if !bytes.Contains(b, runOK) {
		return nil, fmt.Errorf("run %s: not ok: %.200s", dash, b)
	}
	return hdr, nil
}

func putFile(sys *system, label, path string, p payload) ([]byte, error) {
	b, _, err := sys.call(label, http.MethodPut, path, p)
	return b, err
}

func getRows(sys *system, dash, ds string) ([]map[string]any, error) {
	b, err := sys.get("ds", "/dashboards/"+dash+"/ds/"+ds)
	if err != nil {
		return nil, err
	}
	return parseRows(b)
}

// programTrace reads the last run's span tree the way an operator would:
// GET /dashboards/{name}/trace?format=chrome.
func programTrace(sys *system, dash string) ([]chromeEvent, error) {
	b, err := sys.quiet("/dashboards/" + dash + "/trace?format=chrome")
	if err != nil {
		return nil, err
	}
	var events []chromeEvent
	return events, json.Unmarshal(b, &events)
}

// replayPlatform is a platform configured as server.New configures its
// own, for the layer replay of a serve workload: node cache and flight
// recorder on. scratch takes the replayed Record calls.
type replayPlatform struct {
	p       *dashboard.Platform
	scratch *history.Recorder
}

func newReplayPlatform() *replayPlatform {
	p := dashboard.NewPlatform()
	p.Cache = dashboard.NewResultCache()
	p.History = history.NewRecorder(history.Options{})
	return &replayPlatform{p: p, scratch: history.NewRecorder(history.Options{})}
}

// ---------------------------------------------------------------------
// serve_refresh

func refreshMinQty(board int) int { return 1 + board%refreshMaxMinQty }

// setupRefresh: an in-memory server without a result cache, four
// dashboards over the uploaded 30 000-row CSV. Each cycle uploads the
// other variant, so the upload revision and the source fingerprint
// rotate and every cache between the socket and the kernels misses.
func setupRefresh(seed int64, _ string) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	var csv [refreshVariants]payload
	var ref [refreshVariants]*refreshRef
	for v := range csv {
		csv[v], ref[v] = genRefreshCSV(rng)
	}
	sys, err := startSystem(server.New(dashboard.NewPlatform()).Handler())
	if err != nil {
		return nil, err
	}
	name := func(cycle int) string { return "refresh_" + strconv.Itoa(cycle%refreshBoards) }
	path := func(cycle int) string { return "/dashboards/" + name(cycle) }
	for d := 0; d < refreshBoards; d++ {
		if _, err := putFile(sys, "save", path(d), newPayload([]byte(refreshFlow(refreshMinQty(d))))); err != nil {
			sys.stop()
			return nil, err
		}
		if _, err := putFile(sys, "put_data", path(d)+"/data/sales.csv", csv[0]); err != nil {
			sys.stop()
			return nil, err
		}
	}
	// Set-up left variant 0 everywhere; cycle c brings the other one.
	variant := func(cycle int) int { return (cycle/refreshBoards + 1) % refreshVariants }
	e := &env{sys: sys, stop: sys.stop}
	e.steps = []step{
		{"put_data", func(c int) error {
			_, err := putFile(sys, "put_data", path(c)+"/data/sales.csv", csv[variant(c)])
			return err
		}},
		{"run", func(c int) error {
			_, err := postRun(sys, name(c))
			return err
		}},
		{"html", func(c int) error {
			_, err := sys.get("html", path(c)+"/html")
			return err
		}},
	}
	e.check = func(c int) error {
		dash, r, q := name(c), ref[variant(c)], refreshMinQty(c%refreshBoards)
		rows, err := getRows(sys, dash, "by_region")
		if err != nil {
			return err
		}
		if err := checkTotals("by_region", rows, "region", "total", r.byRegion[q]); err != nil {
			return err
		}
		if rows, err = getRows(sys, dash, "top_products"); err != nil {
			return err
		}
		return checkTop("top_products", rows, "product", "total", r.byProduct[q], refreshTopN)
	}
	e.traceOf = func(c int) ([]chromeEvent, error) {
		return programTrace(sys, name(c))
	}
	e.sourceRowsPerOp, e.sourceBytesPerOp = refreshRows, float64(len(csv[0].body))
	rpl := newReplayPlatform()
	e.replay = func(rp *replayer, c int) {
		res := map[string][]byte{"sales.csv": csv[variant(c)].body}
		d := rp.compile(rpl.p, "refresh", refreshFlow(refreshMinQty(c%refreshBoards)), res, "run", "run")
		rp.run(rpl.p, d, res)
		rp.record(rpl.p, d, rpl.scratch, nil)
		rp.render(d, "html")
	}
	return e, nil
}

// ---------------------------------------------------------------------
// serve_hot

// hotGate is serve_hot's admission gate: on, and never saturated by one
// client.
var hotGate = admission.Config{MaxInFlight: 4, QueueDepth: 16}

const (
	hotBoards   = 8
	hotRows     = 2000
	hotRegions  = 16 // the selection rotates over these keys
	hotProducts = 40
)

// gridRow matches one body row of a rendered two-column Grid widget.
var gridRow = regexp.MustCompile(`<tr><td>([^<]*)</td><td>([^<]*)</td></tr>`)

// gridRows extracts the rows of the Grid widget named name from a
// rendered page, in the shape parseRows gives.
func gridRows(page []byte, name, keyCol, valCol string) ([]map[string]any, error) {
	open := []byte(`data-widget="` + name + `"`)
	i := bytes.Index(page, open)
	if i < 0 {
		return nil, fmt.Errorf("page has no widget %q", name)
	}
	page = page[i:]
	if j := bytes.Index(page, []byte("</table>")); j >= 0 {
		page = page[:j]
	}
	var rows []map[string]any
	for _, m := range gridRow.FindAllSubmatch(page, -1) {
		v, err := strconv.ParseFloat(string(m[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("widget %q: cell %q: %w", name, m[2], err)
		}
		rows = append(rows, map[string]any{keyCol: string(m[1]), valCol: v})
	}
	return rows, nil
}

// setupHot: admission gate on (never saturated by one client) and the
// shared result cache on; eight small dashboards, all run once, so the
// working set sits inside every cache. The cycle is the viewer's loop.
func setupHot(seed int64, _ string) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	sys, err := startSystem(server.New(dashboard.NewPlatform(),
		server.WithAdmission(hotGate),
		server.WithResultCache(0)).Handler())
	if err != nil {
		return nil, err
	}
	name := func(cycle int) string { return "hot_" + strconv.Itoa(cycle%hotBoards) }
	var ref [hotBoards]*salesRef
	var firstCSV payload // the layer replay's source
	flow := newPayload([]byte(hotFlow))
	for d := 0; d < hotBoards; d++ {
		var csv payload
		csv, ref[d] = genSalesCSV(rng, hotRows, hotRegions, hotProducts)
		if d == 0 {
			firstCSV = csv
		}
		err := func() error {
			if _, err := putFile(sys, "save", "/dashboards/"+name(d), flow); err != nil {
				return err
			}
			if _, err := putFile(sys, "put_data", "/dashboards/"+name(d)+"/data/sales.csv", csv); err != nil {
				return err
			}
			_, err := postRun(sys, name(d))
			return err
		}()
		if err != nil {
			sys.stop()
			return nil, err
		}
	}
	key := func(cycle int) string { return "r" + strconv.Itoa((cycle/hotBoards)%hotRegions) }
	const adhocPath = "/ds/by_region_product/groupby/region/sum/total"
	e := &env{sys: sys, stop: sys.stop}
	e.steps = []step{
		{"run", func(c int) error {
			hdr, err := postRun(sys, name(c))
			if err == nil && hdr.Get(server.ResultCacheHeader) != admission.OutcomeHit {
				err = fmt.Errorf("run %s: result cache %q, want hit", name(c), hdr.Get(server.ResultCacheHeader))
			}
			return err
		}},
		{"select", func(c int) error {
			body := newPayload([]byte(`{"values":["` + key(c) + `"]}`))
			b, _, err := sys.call("select", http.MethodPost, "/dashboards/"+name(c)+"/select/picker", body)
			if err != nil {
				return err
			}
			var resp struct{ Dependents []string }
			if err := json.Unmarshal(b, &resp); err != nil {
				return err
			}
			if len(resp.Dependents) != 2 || resp.Dependents[0] != "detail" || resp.Dependents[1] != "chart" {
				return fmt.Errorf("select %s: dependents %v, want [detail chart]", name(c), resp.Dependents)
			}
			return nil
		}},
		{"adhoc", func(c int) error {
			_, err := sys.get("adhoc", "/dashboards/"+name(c)+adhocPath)
			return err
		}},
		{"html", func(c int) error {
			_, err := sys.get("html", "/dashboards/"+name(c)+"/html")
			return err
		}},
	}
	e.check = func(c int) error {
		r := ref[c%hotBoards]
		b, err := sys.get("adhoc", "/dashboards/"+name(c)+adhocPath)
		if err != nil {
			return err
		}
		rows, err := parseRows(b)
		if err != nil {
			return err
		}
		if err := checkTotals("adhoc", rows, "region", "sum_total", r.byRegion); err != nil {
			return err
		}
		if b, err = sys.get("html", "/dashboards/"+name(c)+"/html"); err != nil {
			return err
		}
		if rows, err = gridRows(b, "detail", "product", "total"); err != nil {
			return err
		}
		return checkTotals("detail after select "+key(c), rows, "product", "total", r.byRegionProduct[key(c)])
	}
	var (
		rpl  *replayPlatform
		rd   *dashboard.Dashboard
		gate = admission.NewGate(hotGate)
		rc   = admission.NewResultCache(0, nil)
	)
	e.replay = func(rp *replayer, c int) {
		if rd == nil {
			// Compiling and running are not on this cycle's path: the
			// replay prepares its dashboard off the record.
			rpl = newReplayPlatform()
			quiet := &replayer{}
			rd = quiet.compile(rpl.p, "hot", hotFlow, map[string][]byte{"sales.csv": firstCSV.body}, hostNone, hostNone)
			quiet.call("dashboard.Run", "dashboard", hostNone, rd.Run)
			rc.Do(context.Background(), "replay", func() (any, error) { return rd, nil })
			if rp.err = quiet.err; rp.err != nil {
				return
			}
		}
		rp.interact(rd, key(c), gate, rc, rpl.scratch)
		rp.render(rd, "html")
	}
	return e, nil
}

// ---------------------------------------------------------------------
// author_durable

const (
	authorBoards   = 8
	authorRows     = 200
	authorRegions  = 8
	authorProducts = 60
	authorMinLimit = 5
	authorLimits   = 8 // saves rotate limit: over this many values
)

// flushPolicy is how the store under author_durable acknowledges a
// write, as shipped: store.Dir.Append fsyncs every append.
const flushPolicy = "fsync per append"

// setupAuthor: a server on a durable store in a real directory. Each
// cycle saves a one-task edit, re-runs and reads the stage statistics:
// the §4.5.3 save-and-rerun loop, with the store appended and compacted
// and the node cache written and partly hit.
func setupAuthor(seed int64, dataDir string) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	dir := filepath.Join(dataDir, fmt.Sprintf("author-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := dashboard.NewPlatform()
	p.Metrics = obs.NewRegistry()
	st, err := shareinsights.NewStore(dir, p.Metrics)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open store: %w", err)
	}
	sys, err := startSystem(server.New(p, server.WithStore(st)).Handler())
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	open := true // the server and store are up
	// The layer replay's own store and bare journal, beside the store.
	var rst *shareinsights.Store
	var raw *store.Dir
	stop := func() {
		if rst != nil {
			rst.Close()
		}
		if raw != nil {
			raw.Close()
		}
		os.RemoveAll(dir + "-replay")
		if open {
			sys.stop()
			st.Close()
			open = false
		}
		os.RemoveAll(dir)
	}
	name := func(cycle int) string { return "author_" + strconv.Itoa(cycle%authorBoards) }
	limit := func(cycle int) int { return authorMinLimit + (cycle/authorBoards+1)%authorLimits }
	// acked holds, per dashboard, every commit hash a save returned.
	var acked [authorBoards][]string
	save := func(board, lim int) error {
		b, err := putFile(sys, "save", "/dashboards/"+name(board), newPayload([]byte(authorFlow(lim))))
		if err != nil {
			return err
		}
		var resp struct{ Commit string }
		if err := json.Unmarshal(b, &resp); err != nil || resp.Commit == "" {
			return fmt.Errorf("save %s: no commit hash in %.200s", name(board), b)
		}
		acked[board] = append(acked[board], resp.Commit)
		return nil
	}
	var ref [authorBoards]*salesRef
	var source payload // the first dashboard's CSV: the layer replay's source
	for d := 0; d < authorBoards; d++ {
		var csv payload
		csv, ref[d] = genSalesCSV(rng, authorRows, authorRegions, authorProducts)
		if d == 0 {
			source = csv
		}
		err := save(d, authorMinLimit)
		if err == nil {
			_, err = putFile(sys, "put_data", "/dashboards/"+name(d)+"/data/sales.csv", csv)
		}
		if err != nil {
			stop()
			return nil, err
		}
	}
	e := &env{sys: sys, stop: stop, dataDir: dir}
	e.steps = []step{
		{"save", func(c int) error { return save(c%authorBoards, limit(c)) }},
		{"run", func(c int) error {
			_, err := postRun(sys, name(c))
			return err
		}},
		{"stats", func(c int) error {
			_, err := sys.get("stats", "/dashboards/"+name(c)+"/stats?full=1")
			return err
		}},
	}
	e.traceOf = func(c int) ([]chromeEvent, error) { return programTrace(sys, name(c)) }
	e.savedBytesPerOp = float64(len(authorFlow(authorMinLimit)))
	var (
		rpl  = newReplayPlatform()
		repo = vcs.NewRepo("author")
	)
	e.sourceRowsPerOp, e.sourceBytesPerOp = authorRows, float64(len(source.body))
	e.replay = func(rp *replayer, c int) {
		if rst == nil {
			// The replay's platform is durable too: its own store, wired
			// as server.New wires one, plus a bare journal directory for
			// pricing an append and a snapshot by themselves.
			if rst, rp.err = shareinsights.NewStore(dir+"-replay", nil); rp.err != nil {
				return
			}
			if rp.err = rst.WirePlatform(rpl.p); rp.err != nil {
				return
			}
			if rp.err = rst.AdoptRepo(repo); rp.err != nil {
				return
			}
			if raw, _, rp.err = store.OpenDir(store.NewOSFS(dir+"-replay"), "raw", "raw", nil); rp.err != nil {
				return
			}
		}
		res := map[string][]byte{"sales.csv": source.body}
		text := authorFlow(limit(c))
		rp.save(rpl.p, repo, raw, "author", text)
		d := rp.compile(rpl.p, "author", text, res, "run", "run")
		rp.run(rpl.p, d, res)
		if t, ok := rpl.p.LastGood.Lookup("author", "sales"); ok {
			// Every durable run journals the last-good source table.
			rp.call("dashboard.SourceCache.Put", "store", hostRunSelf, func() error {
				rpl.p.LastGood.Put("author", "sales", t)
				return nil
			})
			rp.appendRecord(raw, "cache", "dashboard.SourceCache.Put", jsonSize(t))
		}
		rp.record(rpl.p, d, rpl.p.History, raw)
	}
	e.replaySnapshot = func(rp *replayer, component string, size int) {
		payload := make([]byte, size)
		for i := 0; i < 3; i++ {
			rp.rec.cycle = i
			rp.call("store.Dir.Snapshot("+component+")", "store", hostNone, func() error {
				return raw.Snapshot(payload, time.Now())
			})
		}
	}
	e.check = func(c int) error {
		r := ref[c%authorBoards]
		rows, err := getRows(sys, name(c), "by_region")
		if err != nil {
			return err
		}
		if err := checkTotals("by_region", rows, "region", "total", r.byRegion); err != nil {
			return err
		}
		if rows, err = getRows(sys, name(c), "leaders"); err != nil {
			return err
		}
		return checkTop("leaders", rows, "product", "total", r.byProduct, limit(c))
	}
	// verify is the durability check: stop, reopen from the directory
	// alone, and require the acknowledged history to be there.
	e.verify = func() error {
		sys.stop()
		open = false
		if err := st.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
		e.diskMB = dirMB(dir)
		t0 := time.Now()
		re, err := shareinsights.NewStore(dir, nil)
		if err != nil {
			return fmt.Errorf("reopen store: %w", err)
		}
		e.recoverMS = ms(time.Since(t0))
		defer re.Close()
		repos := re.Repos()
		for d := 0; d < authorBoards; d++ {
			repo := repos[name(d)]
			if repo == nil {
				return fmt.Errorf("recovered store has no repository %s", name(d))
			}
			log, err := repo.Log(vcs.DefaultBranch)
			if err != nil {
				return err
			}
			have := make(map[string]bool, len(log))
			for _, c := range log {
				have[c.Hash] = true
			}
			for _, h := range acked[d] {
				if !have[h] {
					return fmt.Errorf("%s: acknowledged commit %s is not in the recovered log", name(d), h)
				}
			}
			if last := acked[d][len(acked[d])-1]; log[0].Hash != last {
				return fmt.Errorf("%s: recovered tip %s, last acknowledged save %s", name(d), log[0].Hash, last)
			}
		}
		return nil
	}
	return e, nil
}

// dirMB is the size of every file under dir.
func dirMB(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// ---------------------------------------------------------------------
// batch_join

// setupJoin: no HTTP and no store. One op is what `shareinsights run`
// does in a fresh process: a new platform, parse, compile, run, render.
func setupJoin(seed int64, _ string) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	facts, dim, ref := genJoinTables(rng)
	mem := map[string][]byte{"facts.sbin": facts, "meta.sbin": dim}
	seq := fnv.New64a()
	inputs := newPayload(append(append([]byte(nil), facts...), dim...)).digest

	heaviest := append([]int64(nil), ref.weights...)
	sort.Slice(heaviest, func(i, j int) bool { return heaviest[i] > heaviest[j] })
	heaviest = heaviest[:joinRankedRows]

	e := &env{stop: func() {}, seq: seq.Sum64}
	var (
		f    *shareinsights.FlowFile
		d    *shareinsights.Dashboard
		text bytes.Buffer
	)
	facade := func(name string, fn func() error) step {
		return step{name, func(int) error {
			fmt.Fprintf(seq, "%s %x;", name, inputs)
			span := e.rec.start("call "+name, layerClient)
			defer e.rec.end(span)
			return fn()
		}}
	}
	e.steps = []step{
		facade("parse", func() (err error) {
			f, err = shareinsights.ParseFlowFile("batch_join", joinFlow)
			return err
		}),
		facade("compile", func() (err error) {
			p := shareinsights.NewPlatform()
			p.Connectors = shareinsights.NewConnectorRegistry(shareinsights.ConnectorOptions{Mem: mem})
			if e.rec != nil {
				e.joinTrace = obs.NewTrace("batch_join")
				p.Tracer = e.joinTrace
			}
			d, err = p.Compile(f, nil)
			return err
		}),
		facade("run", func() error { return d.Run() }),
		facade("render", func() error {
			text.Reset()
			err := d.RenderText(&text)
			e.rendered += int64(text.Len())
			return err
		}),
	}
	e.check = func(int) error {
		for _, ep := range []struct {
			name, key string
			want      totals
			top       int
		}{
			{"by_project", "project", ref.byProject, joinTopProjects},
			{"by_tech", "technology", ref.byTech, len(ref.byTech)},
			{"by_year", "year", ref.byYear, 0},
		} {
			t, ok := d.Endpoint(ep.name)
			if !ok {
				return fmt.Errorf("no endpoint %s", ep.name)
			}
			var err error
			if ep.top > 0 {
				err = checkTop(ep.name, rowsOf(t), ep.key, "total", ep.want, ep.top)
			} else {
				err = checkTotals(ep.name, rowsOf(t), ep.key, "total", ep.want)
			}
			if err != nil {
				return err
			}
		}
		ranked, ok := d.Endpoint("ranked")
		if !ok || ranked.Len() != joinRankedRows {
			return fmt.Errorf("ranked: missing or not %d rows", joinRankedRows)
		}
		for i := 0; i < ranked.Len(); i++ {
			if got := ranked.Cell(i, "total_wt").Int(); got != heaviest[i] {
				return fmt.Errorf("ranked: row %d has total_wt %d, want %d", i, got, heaviest[i])
			}
		}
		if text.Len() == 0 {
			return fmt.Errorf("RenderText wrote nothing")
		}
		return nil
	}
	e.traceOf = func(int) ([]chromeEvent, error) {
		var buf bytes.Buffer
		if err := e.joinTrace.WriteChrome(&buf); err != nil {
			return nil, err
		}
		var events []chromeEvent
		return events, json.Unmarshal(buf.Bytes(), &events)
	}
	e.sourceRowsPerOp, e.sourceBytesPerOp = joinFactRows+joinDimRows, float64(len(facts)+len(dim))
	e.replay = func(rp *replayer, _ int) {
		p := shareinsights.NewPlatform()
		p.Connectors = shareinsights.NewConnectorRegistry(shareinsights.ConnectorOptions{Mem: mem})
		rd := rp.compile(p, "batch_join", joinFlow, nil, "parse", "compile")
		rp.run(p, rd, nil)
		rp.call("dashboard.RenderText", "dashboard", "render", func() error { return rd.RenderText(io.Discard) })
	}
	return e, nil
}
