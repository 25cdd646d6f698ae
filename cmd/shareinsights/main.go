// Command shareinsights is the platform CLI. One line per row of the
// command table below, which main dispatches through:
//
//	shareinsights run <flow-file>        compile, run, print endpoint data
//	shareinsights validate <flow-file>   parse and cross-check the sections
//	shareinsights lint [-json] [-fail-on sev] <flow-file>
//	                                     static analysis: type-check every
//	                                     expression, find dead entities,
//	                                     bad properties (docs/LINTING.md);
//	                                     exits 1 when a finding at or above
//	                                     sev (error|warning|info) exists
//	shareinsights check [-json] <flow-file>
//	                                     lint plus the inferred facts: per-
//	                                     object column types, constants,
//	                                     value intervals, cardinality
//	                                     bounds, filter verdicts and dead
//	                                     columns (docs/TYPES.md)
//	shareinsights fmt <flow-file>        print the canonical form
//	shareinsights plan <flow-file>       print the compiled DAG
//	shareinsights explain [-json] <flow-file>
//	                                     print the optimizer's plan with the
//	                                     evidence behind each decision
//	                                     (docs/OPTIMIZER.md); never runs
//	shareinsights explore <flow-file>    run and print every endpoint table
//	shareinsights render <flow-file>     run and write <name>.html
//	shareinsights time [-compare] <flow-file>
//	                                     run and print the slowest pipeline
//	                                     stages (§6 bottleneck analysis);
//	                                     -compare records the run in the
//	                                     flight recorder (.sihistory beside
//	                                     the flow file, or -history-dir) and
//	                                     prints per-stage deltas against the
//	                                     EWMA baseline of earlier runs
//	shareinsights history [-json] [-limit N] <flow-file>
//	                                     print the recorded run history and
//	                                     per-stage latency profiles without
//	                                     running (docs/OBSERVABILITY.md)
//	shareinsights profile <flow-file>    run and print the auto-generated
//	                                     data-profile meta-dashboard (§6)
//	shareinsights serve [-addr :8080]    start the REST development server
//	                                     (-pprof addr serves net/http/pprof
//	                                     on its own listener and mux, never
//	                                     the public route table); admission
//	                                     control via -max-inflight,
//	                                     -queue-depth, -tenant-rps,
//	                                     -result-cache, -run-max-rows,
//	                                     -run-max-bytes (docs/SERVING.md);
//	                                     -follow <leader-url> serves as a
//	                                     read-only replica with bounded
//	                                     staleness via -max-lag
//	                                     (docs/REPLICATION.md)
//	shareinsights library                list installed tasks, operators,
//	                                     aggregates, widgets, connectors
//
// Data files referenced by a flow file (CSV payloads, task dictionaries)
// are looked up in the directory of the flow file — the per-dashboard
// data folder of §4.3.2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"shareinsights"
	"shareinsights/internal/analyze"
	"shareinsights/internal/analyze/flowcheck"
	"shareinsights/internal/dag"
	"shareinsights/internal/diagnose"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/profile"
	"shareinsights/internal/store"
	"shareinsights/internal/task"
	"shareinsights/internal/widget"
)

// command is one row of the CLI: main dispatches through the table and
// usage is derived from it. synopsis is the argument form the package
// comment and the README list the command under.
type command struct {
	name     string
	synopsis string
	run      func(args []string)
}

var commands = []command{
	{"run", "run <flow-file>", func(args []string) { cmdRun("run", 20, args) }},
	{"validate", "validate <flow-file>", cmdValidate},
	{"lint", "lint [-json] [-fail-on sev] <flow-file>", cmdLint},
	{"check", "check [-json] <flow-file>", cmdCheck},
	{"fmt", "fmt <flow-file>", cmdFmt},
	{"plan", "plan <flow-file>", cmdPlan},
	{"explain", "explain [-json] <flow-file>", cmdExplain},
	{"explore", "explore <flow-file>", func(args []string) { cmdRun("explore", 0, args) }},
	{"render", "render <flow-file>", cmdRender},
	{"time", "time [-compare] <flow-file>", cmdTime},
	{"history", "history [-json] [-limit N] <flow-file>", cmdHistory},
	{"profile", "profile <flow-file>", cmdProfile},
	{"serve", "serve [-addr :8080]", cmdServe},
	{"library", "library", cmdLibrary},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("shareinsights: ")
	if len(os.Args) >= 2 {
		for _, c := range commands {
			if c.name == os.Args[1] {
				c.run(os.Args[2:])
				return
			}
		}
	}
	usage()
}

func usage() {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
	}
	fmt.Fprintf(os.Stderr, "usage: shareinsights {%s} [args]\n", strings.Join(names, "|"))
	os.Exit(2)
}

// printJSON writes v to stdout as indented JSON.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// historyFlag declares -history-dir; what says what the recorder is for.
func historyFlag(fs *flag.FlagSet, what string) *string {
	return fs.String("history-dir", "", "flight-recorder directory"+what+"; default .sihistory beside the flow file")
}

// historyDir resolves the flight-recorder directory: an explicit
// -history-dir wins, else .sihistory beside the flow file so repeated
// `time -compare` runs of the same dashboard share one baseline.
func historyDir(flowPath, dir string) string {
	if dir != "" {
		return dir
	}
	return filepath.Join(filepath.Dir(flowPath), ".sihistory")
}

// openHistory opens the flow file's flight recorder.
func openHistory(flowPath, dir string) *history.Recorder {
	rec, err := history.Open(store.NewOSFS(historyDir(flowPath, dir)), history.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return rec
}

// cmdRun is run (the first limit rows of every endpoint) and explore
// (every row, limit 0).
func cmdRun(cmd string, limit int, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	showTrace := fs.Bool("trace", false, "print the run's execution span tree")
	traceJSON := fs.String("trace-json", "", "write the run's trace as Chrome trace-event JSON to `file`")
	timeout := fs.Duration("timeout", 0, "overall run deadline (e.g. 30s); 0 disables")
	retries := fs.Int("retries", -1, "connector retry budget per source; -1 keeps the default")
	fs.Parse(args)
	var trace *shareinsights.Trace
	d := mustRunTraced(mustArg(fs.Args(), "flow file"), func(p *shareinsights.Platform, name string) {
		configureResilience(p, *timeout, *retries)
		if *showTrace || *traceJSON != "" {
			trace = shareinsights.NewTrace(name)
			p.Tracer = trace
		}
	})
	d.WriteEndpoints(os.Stdout, "D.", true, limit)
	if *showTrace {
		fmt.Println("execution trace:")
		trace.Format(os.Stdout)
	}
	if *traceJSON != "" {
		writeFile(*traceJSON, trace.WriteChrome)
	}
}

// writeFile creates path, fills it through write and reports it.
func writeFile(path string, write func(io.Writer) error) {
	fd, err := os.Create(path)
	if err == nil {
		err = write(fd)
	}
	if err == nil {
		err = fd.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", path)
}

func cmdValidate(args []string) {
	f := mustParse(mustArg(args, "flow file"))
	if err := f.Validate(true); err != nil {
		for _, d := range diagnose.Diagnose(f, err) {
			fmt.Fprintln(os.Stderr, d)
		}
		os.Exit(1)
	}
	fmt.Printf("%s: ok (%d data objects, %d flows, %d tasks, %d widgets)\n",
		f.Name, len(f.Data), len(f.Flows), len(f.Tasks), len(f.Widgets))
}

func cmdLint(args []string) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit findings as JSON")
	failOn := fs.String("fail-on", "error", "exit nonzero when a finding at or above this severity exists: error, warning or info")
	fs.Parse(args)
	gate, ok := analyze.ParseSeverity(*failOn)
	if !ok {
		fatalUsage("bad -fail-on %q: want error, warning or info", *failOn)
	}
	path := mustArg(fs.Args(), "flow file")
	f := mustParse(path)
	report, _ := lintFile(f, path)
	if *asJSON {
		printJSON(report)
	} else {
		for _, fd := range report.Findings {
			fmt.Println(fd)
		}
		errs, warns, infos := report.Counts()
		if len(report.Findings) == 0 {
			fmt.Printf("%s: clean\n", f.Name)
		} else {
			fmt.Printf("%s: %d error(s), %d warning(s), %d info(s)\n", f.Name, errs, warns, infos)
		}
	}
	if report.HasAtLeast(gate) {
		os.Exit(1)
	}
}

func cmdCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit findings and facts as JSON")
	fs.Parse(args)
	path := mustArg(fs.Args(), "flow file")
	f := mustParse(path)
	report, facts := lintFile(f, path)
	if *asJSON {
		printJSON(map[string]any{"findings": report.Findings, "facts": facts})
	} else {
		printFacts(f.Name, facts)
		for _, fd := range report.Findings {
			fmt.Println(fd)
		}
	}
	if report.HasErrors() {
		os.Exit(1)
	}
}

func cmdFmt(args []string) {
	f := mustParse(mustArg(args, "flow file"))
	fmt.Print(f.String())
}

func cmdPlan(args []string) {
	path := mustArg(args, "flow file")
	f := mustParse(path)
	p := platformFor(path)
	g, err := dag.Build(f, p.Tasks, p.Catalog.ResolveSchema)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(g.String())
	if dead := g.DeadSinks(); len(dead) > 0 {
		fmt.Printf("dead sinks (skipped): %s\n", strings.Join(dead, ", "))
	}
}

func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the plan as JSON")
	histDir := historyFlag(fs, " feeding observed selectivities")
	fs.Parse(args)
	path := mustArg(fs.Args(), "flow file")
	var rec *history.Recorder
	_, d := mustCompileTraced(path, func(p *shareinsights.Platform, name string) {
		// Attach the flight recorder only when it already exists (or
		// was pointed at explicitly): explain is read-only and must
		// not litter .sihistory directories.
		if _, err := os.Stat(historyDir(path, *histDir)); err != nil && *histDir == "" {
			return
		}
		rec = openHistory(path, *histDir)
		p.History = rec
	})
	if rec != nil {
		defer rec.Close()
	}
	plan := d.Explain()
	if plan == nil {
		log.Fatal("optimizer disabled on this platform; nothing to explain")
	}
	if *asJSON {
		printJSON(map[string]any{"dashboard": d.Name, "plan": plan})
		return
	}
	fmt.Printf("plan for %s (evidence: history > facts > heuristic):\n", d.Name)
	fmt.Print(plan.Format())
}

func cmdRender(args []string) {
	path := mustArg(args, "flow file")
	d := mustRunTraced(path, nil)
	writeFile(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))+".html", d.RenderHTML)
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataDir := fs.String("data", ".", "data directory for file sources")
	stateDir := fs.String("data-dir", "", "durable state directory (WAL + snapshots, docs/DURABILITY.md); empty keeps state in memory")
	sharedCap := fs.Int("shared-cap", 0, "max published objects in the shared catalog (LRU eviction); 0 = unbounded")
	timeout := fs.Duration("timeout", 0, "per-run deadline for dashboard runs; 0 disables")
	retries := fs.Int("retries", -1, "connector retry budget per source; -1 keeps the default")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (own listener and mux); empty disables")
	maxInflight := fs.Int("max-inflight", 0, "admission gate: max concurrent expensive requests (runs, renders, explores); 0 disables the gate")
	queueDepth := fs.Int("queue-depth", 0, "admission gate: waiters allowed beyond -max-inflight before shedding with 429")
	tenantRPS := fs.Float64("tenant-rps", 0, "per-tenant token-bucket rate limit (X-SI-Tenant header); 0 disables")
	resultCache := fs.Int("result-cache", 0, "shared result cache: collapse identical concurrent runs, serve repeats until invalidated; value bounds the entry count, 0 disables")
	runMaxRows := fs.Int64("run-max-rows", 0, "per-run budget: max materialized rows across all data objects; 0 = unbounded")
	runMaxBytes := fs.Int64("run-max-bytes", 0, "per-run budget: max materialized bytes across all data objects; 0 = unbounded")
	follow := fs.String("follow", "", "run as a read-only replica pulling WAL frames from the leader at this base URL (docs/REPLICATION.md); writes redirect there. With -data-dir the replication cursor survives restarts")
	maxLag := fs.Duration("max-lag", 0, "follower: refuse dashboard reads with 503 + Retry-After once replication lag exceeds this bound; 0 serves however stale")
	poll := fs.Duration("poll", 0, "follower: leader poll interval; 0 keeps the default (500ms)")
	fs.Parse(args)
	p := shareinsights.NewPlatform()
	p.Connectors = shareinsights.NewConnectorRegistry(shareinsights.ConnectorOptions{DataDir: *dataDir})
	configureResilience(p, *timeout, *retries)
	if *runMaxRows > 0 || *runMaxBytes > 0 {
		rows, bytes := *runMaxRows, *runMaxBytes
		p.NewRunBudget = func() shareinsights.EngineBudget {
			return shareinsights.NewRunBudget(rows, bytes)
		}
	}
	if *sharedCap > 0 {
		p.Catalog.SetLimit(*sharedCap)
	}
	var opts []shareinsights.ServerOption
	if *maxInflight > 0 || *queueDepth > 0 || *tenantRPS > 0 {
		opts = append(opts, shareinsights.WithAdmission(shareinsights.AdmissionConfig{
			MaxInFlight: *maxInflight,
			QueueDepth:  *queueDepth,
			TenantRPS:   *tenantRPS,
		}))
	}
	if *resultCache > 0 {
		opts = append(opts, shareinsights.WithResultCache(*resultCache))
	}
	var st *shareinsights.Store
	var fol *shareinsights.Follower
	if *follow != "" {
		p.Metrics = shareinsights.NewMetricsRegistry()
		fcfg := shareinsights.FollowerConfig{
			LeaderURL:    *follow,
			PollInterval: *poll,
			Metrics:      p.Metrics,
		}
		if *stateDir != "" {
			// A durable replica home: the cursor and applied frames
			// survive restarts, so the follower resumes instead of
			// re-bootstrapping.
			fcfg.FS = store.NewOSFS(*stateDir)
		}
		var err error
		fol, err = shareinsights.NewFollower(fcfg)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, shareinsights.WithFollower(fol, *maxLag))
	} else if *stateDir != "" {
		p.Metrics = shareinsights.NewMetricsRegistry()
		var err error
		st, err = shareinsights.NewStore(*stateDir, p.Metrics)
		if err != nil {
			log.Fatal(err)
		}
		for _, rec := range st.Recoveries() {
			line := fmt.Sprintf("recovered %s: %d record(s) replayed", rec.Component, rec.RecordCount)
			if rec.SnapshotBytes > 0 {
				line += fmt.Sprintf(", snapshot %dB from %s", rec.SnapshotBytes, rec.SnapshotAt.Format(time.RFC3339))
			}
			if rec.TornBytes > 0 {
				line += fmt.Sprintf(", %dB torn tail truncated", rec.TornBytes)
			}
			if rec.CorruptSnapshots > 0 {
				line += fmt.Sprintf(", %d corrupt snapshot(s) skipped", rec.CorruptSnapshots)
			}
			fmt.Println(line)
		}
		opts = append(opts, shareinsights.WithStore(st))
	}
	srv := shareinsights.NewServer(p, opts...)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow-client protection: a stalled peer cannot pin a
		// connection (and its goroutine) forever, and a sink that
		// stops reading a response cannot stall a writer goroutine.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if fol != nil {
		// Catch up before accepting traffic so the first reads are not
		// needlessly stale; a failed first sync is non-fatal (the pull
		// loop keeps retrying) but worth announcing.
		if err := fol.Sync(ctx); err != nil {
			log.Printf("initial sync from %s failed: %v (serving stale; pull loop retries)", *follow, err)
		}
		go fol.Run(ctx)
		fmt.Printf("following leader at %s (poll %s, max lag %s)\n", *follow, *poll, *maxLag)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	// The profiler gets its own mux on its own listener: the pprof
	// handlers never join the public route table, and the default
	// (-pprof unset) exposes nothing.
	var ps *http.Server
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		ps = &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() { ps.Serve(pln) }()
		fmt.Printf("pprof listening on %s\n", pln.Addr())
	}
	// Print the resolved address (":0" picks a free port).
	fmt.Printf("ShareInsights listening on %s (data dir %s)\n", ln.Addr(), *dataDir)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Println("shutting down...")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Fatal(err)
		}
		if ps != nil {
			ps.Shutdown(sctx)
		}
		// In-flight requests have drained; flush and fsync the WAL
		// so every acknowledged mutation is durable before exit.
		if st != nil {
			if err := st.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Println("durable state closed")
		}
		if fol != nil {
			if err := fol.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Println("replica state closed")
		}
	}
}

func cmdTime(args []string) {
	fs := flag.NewFlagSet("time", flag.ExitOnError)
	compare := fs.Bool("compare", false, "record the run in the flight recorder and print per-stage deltas vs the EWMA baseline")
	histDir := historyFlag(fs, "")
	fs.Parse(args)
	path := mustArg(fs.Args(), "flow file")
	var rec *history.Recorder
	d := mustRunTraced(path, func(p *shareinsights.Platform, name string) {
		if *compare {
			rec = openHistory(path, *histDir)
			p.History = rec
		}
	})
	st := d.Result().Stats
	fmt.Println("slowest pipeline stages:")
	for _, s := range st.Slowest(10) {
		fmt.Printf("  %-12v  D.%-20s  %6d rows  %-8s  %s", s.Duration.Round(time.Microsecond), s.Output, s.Rows, s.Path, s.Stage)
		if s.Plan != "" && s.Plan != "as-written" {
			fmt.Printf("  [plan: %s]", s.Plan)
		}
		fmt.Println()
	}
	// RunWithCache also reports what did NOT run: cached nodes and
	// optimizer-eliminated sinks are as bottleneck-relevant as the
	// slow stages.
	printList("cache hits", st.CacheHits)
	printList("skipped sinks", st.SkippedSinks)
	// Resilience telemetry: sources that needed retries or served
	// fallback data are bottlenecks (and risks) too.
	h := d.Health()
	fmt.Printf("source retries: %d\n", h.Retries)
	var degraded []string
	for _, sh := range h.Sources {
		if sh.Status != "ok" {
			degraded = append(degraded, fmt.Sprintf("D.%s (%s)", sh.Name, sh.Status))
		}
	}
	printList("degraded sources", degraded)
	if rec != nil {
		printCompare(rec, d.Name)
		if err := rec.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// printList prints "label: a, b" — or "label: none".
func printList(label string, items []string) {
	if len(items) == 0 {
		items = []string{"none"}
	}
	fmt.Printf("%s: %s\n", label, strings.Join(items, ", "))
}

func cmdHistory(args []string) {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit runs and profiles as JSON")
	limit := fs.Int("limit", 10, "max runs to print; 0 = all")
	histDir := historyFlag(fs, "")
	fs.Parse(args)
	path := mustArg(fs.Args(), "flow file")
	f := mustParse(path)
	rec := openHistory(path, *histDir)
	defer rec.Close()
	runs := rec.Runs(f.Name, *limit)
	if len(runs) == 0 {
		fatalUsage("no recorded runs for %s; run `shareinsights time -compare %s` first", f.Name, path)
	}
	if *asJSON {
		body := map[string]any{
			"dashboard": f.Name,
			"flow_hash": runs[0].FlowHash,
			"runs":      runs,
			"profiles":  rec.Profiles(runs[0].FlowHash),
		}
		// The recorder's WAL position — the cursor a replica of this
		// history would resume from (docs/REPLICATION.md).
		cur := rec.Component().Dir().Cursor()
		body["wal"] = map[string]any{
			"generation":       cur.Gen,
			"committed_offset": cur.Offset,
		}
		printJSON(body)
		return
	}
	fmt.Printf("run history for %s (%d run(s), newest first):\n", f.Name, len(runs))
	for _, r := range runs {
		line := fmt.Sprintf("  #%-4d %s  %-8s  %8s  %d stage(s)",
			r.Seq, r.StartedAt.Format(time.RFC3339), r.Status,
			time.Duration(r.DurationUS)*time.Microsecond, len(r.Stages))
		if r.Retries > 0 {
			line += fmt.Sprintf("  retries=%d", r.Retries)
		}
		if r.CacheHits > 0 {
			line += fmt.Sprintf("  cache_hits=%d", r.CacheHits)
		}
		if len(r.DegradedSources) > 0 {
			line += "  degraded=" + strings.Join(r.DegradedSources, ",")
		}
		fmt.Println(line)
	}
	profs := rec.Profiles(runs[0].FlowHash)
	if len(profs) > 0 {
		fmt.Printf("stage profiles (flow %s):\n", runs[0].FlowHash)
		for _, p := range profs {
			fmt.Printf("  D.%-20s %-24s n=%-4d ewma=%-10s p50=%-10s p99=%-10s sel=%.2f\n",
				p.Output, p.Stage, p.Count,
				time.Duration(int64(p.EWMAUS))*time.Microsecond,
				time.Duration(int64(p.Latency.Quantile(0.5)))*time.Microsecond,
				time.Duration(int64(p.Latency.Quantile(0.99)))*time.Microsecond,
				p.Selectivity)
		}
	}
	printCompare(rec, f.Name)
}

func cmdProfile(args []string) {
	d := mustRunTraced(mustArg(args, "flow file"), nil)
	meta, err := profile.BuildMeta(d)
	if err != nil {
		log.Fatal(err)
	}
	meta.WriteEndpoints(os.Stdout, "", false, 0)
}

func cmdLibrary(args []string) {
	p := shareinsights.NewPlatform()
	fmt.Println("tasks:     ", strings.Join(p.Tasks.Types(), ", "))
	fmt.Println("operators: ", strings.Join(task.Operators(), ", "))
	fmt.Println("aggregates:", strings.Join(task.Aggregates(), ", "))
	fmt.Println("widgets:   ", strings.Join(widget.Types(), ", "))
	fmt.Println("protocols: ", strings.Join(p.Connectors.Protocols(), ", "))
	fmt.Println("formats:   ", strings.Join(p.Connectors.Formats(), ", "))
}

// printCompare prints the latest recorded run's per-stage deltas
// against the EWMA baseline of earlier runs — the regression view of
// `time -compare` and GET /dashboards/{name}/history?baseline=1.
// Regressions (beyond the recorder's threshold) are marked with '!'.
func printCompare(rec *history.Recorder, dash string) {
	last, ok := rec.LastRun(dash)
	if !ok {
		return
	}
	if len(last.Deltas) == 0 {
		fmt.Println("baseline: first recorded run for this flow revision, no baseline yet")
		return
	}
	fmt.Println("vs baseline (EWMA of prior runs, '!' = regressed):")
	for _, dl := range last.Deltas {
		mark := " "
		if dl.Regressed {
			mark = "!"
		}
		fmt.Printf("%s D.%-20s %-24s %-8s last=%-10s base=%-10s delta=%+.1f%%\n",
			mark, dl.Output, dl.Stage, dl.Path,
			time.Duration(dl.LastUS)*time.Microsecond,
			time.Duration(dl.BaselineUS)*time.Microsecond,
			dl.DeltaPct)
	}
}

// lintFile runs the static analyzer with the platform context rooted at
// the flow file's directory, returning the report and the inferred
// facts.
func lintFile(f *shareinsights.FlowFile, path string) (*analyze.Report, *flowcheck.Facts) {
	p := platformFor(path)
	return analyze.LintWithFacts(f, analyze.PlatformOptions(p.Tasks, p.Connectors, p.Catalog))
}

// printFacts renders the typed per-object summary of `shareinsights
// check`: column types with constants and value bounds, row-count
// bounds, filter verdicts, and dead columns.
func printFacts(name string, facts *flowcheck.Facts) {
	fmt.Printf("%s: %d data object(s)\n", name, len(facts.Objects))
	objs := make([]string, 0, len(facts.Objects))
	for obj := range facts.Objects {
		objs = append(objs, obj)
	}
	sort.Strings(objs)
	for _, obj := range objs {
		of := facts.Objects[obj]
		line := fmt.Sprintf("D.%s  <- %s  rows %s", obj, of.Producer, cardString(of.Card))
		if of.Verdict != "" {
			line += "  [" + of.Verdict + "]"
		}
		fmt.Println(line)
		cols := make([]string, 0, len(of.Columns))
		for c := range of.Columns {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		live := map[string]bool{}
		for _, c := range of.Live {
			live[c] = true
		}
		for _, c := range cols {
			cf := of.Columns[c]
			line := fmt.Sprintf("  %-20s %s", c, cf.Type)
			if cf.Const != nil {
				line += fmt.Sprintf("  = %s", *cf.Const)
			} else if cf.Lo != nil || cf.Hi != nil {
				lo, hi := "-inf", "+inf"
				if cf.Lo != nil {
					lo = strconv.FormatFloat(*cf.Lo, 'g', -1, 64)
				}
				if cf.Hi != nil {
					hi = strconv.FormatFloat(*cf.Hi, 'g', -1, 64)
				}
				line += fmt.Sprintf("  in [%s, %s]", lo, hi)
			}
			if of.Live != nil && !live[c] {
				line += "  (unused)"
			}
			fmt.Println(line)
		}
	}
	for _, d := range facts.Dead {
		role := "fetched"
		if d.Computed {
			role = "computed"
		}
		fmt.Printf("dead column: D.%s.%s (%s, never read downstream)\n", d.Object, d.Column, role)
	}
}

// cardString renders a row-count bound compactly: "0..100", ">=5", "?".
func cardString(c flowcheck.Card) string {
	if c.Unbounded {
		if c.Min > 0 {
			return fmt.Sprintf(">=%d", c.Min)
		}
		return "?"
	}
	return fmt.Sprintf("%d..%d", c.Min, c.Max)
}

// fatalUsage reports a usage-level problem (bad argument, unreadable
// or unparsable input) and exits 2, distinguishing it from exit 1,
// which lint/check reserve for "findings at or above the gate".
func fatalUsage(format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(2)
}

func mustArg(args []string, what string) string {
	if len(args) < 1 {
		fatalUsage("missing %s argument", what)
	}
	return args[0]
}

func mustParse(path string) *shareinsights.FlowFile {
	src, err := os.ReadFile(path)
	if err != nil {
		fatalUsage("%v", err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	f, err := shareinsights.ParseFlowFile(name, string(src))
	if err != nil {
		fatalUsage("%v", err)
	}
	return f
}

// configureResilience applies the -timeout/-retries flags to a
// platform: the run deadline and the connector retry budget.
func configureResilience(p *shareinsights.Platform, timeout time.Duration, retries int) {
	p.RunTimeout = timeout
	if retries >= 0 {
		pol := p.Connectors.RetryPolicy()
		pol.MaxRetries = retries
		p.Connectors.SetRetryPolicy(pol)
	}
}

// platformFor builds a platform whose file connector and task resources
// are rooted at the flow file's directory.
func platformFor(path string) *shareinsights.Platform {
	p := shareinsights.NewPlatform()
	p.Connectors = shareinsights.NewConnectorRegistry(shareinsights.ConnectorOptions{
		DataDir: filepath.Dir(path),
	})
	return p
}

// mustRunTraced compiles and runs a flow file; configure, when not nil,
// is a pre-run platform hook (the run command uses it to attach an
// execution tracer).
func mustRunTraced(path string, configure func(*shareinsights.Platform, string)) *shareinsights.Dashboard {
	f, d := mustCompileTraced(path, configure)
	if err := d.Run(); err != nil {
		fatalDiagnostics(f, err)
	}
	return d
}

// mustCompileTraced parses and compiles a flow file without running it
// (the explain command's path), with the same platform setup and data
// resources a run would see.
func mustCompileTraced(path string, configure func(*shareinsights.Platform, string)) (*shareinsights.FlowFile, *shareinsights.Dashboard) {
	f := mustParse(path)
	p := platformFor(path)
	if configure != nil {
		configure(p, f.Name)
	}
	// Every regular file beside the flow file is available as a task
	// resource (dictionaries) and via the data: scheme.
	resources := map[string][]byte{}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err == nil {
		for _, e := range entries {
			if e.IsDir() || e.Name() == filepath.Base(path) {
				continue
			}
			if b, err := os.ReadFile(filepath.Join(filepath.Dir(path), e.Name())); err == nil {
				resources[e.Name()] = b
			}
		}
	}
	d, err := p.Compile(f, resources)
	if err != nil {
		fatalDiagnostics(f, err)
	}
	return f, d
}

// fatalDiagnostics prints flow-file-level diagnostics (§6 error
// pin-pointing) instead of raw engine errors, then exits.
func fatalDiagnostics(f *shareinsights.FlowFile, err error) {
	for _, d := range diagnose.Diagnose(f, err) {
		fmt.Fprintln(os.Stderr, "error:", d)
	}
	os.Exit(1)
}
