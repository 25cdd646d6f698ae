package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/dashboard"
	"shareinsights/internal/obs/history"
	"shareinsights/internal/store"
	"shareinsights/internal/store/persist"
	"shareinsights/internal/vcs"
)

// The format-pinning test. A fixed op sequence drives the leader's four
// components, the standalone flight recorder and two followers; every
// byte that reaches disk (WAL record payloads, snapshot payloads and
// write times) and every leader response on the wire is compared with
// testdata/golden/format.txt, and the directory image a previous build
// wrote (testdata/golden/image) must still recover to the exported
// state in testdata/golden/state.txt. The files parse the on-disk
// framing themselves (docs/DURABILITY.md) rather than through the
// store package, so a change to the framing cannot move both sides.
//
// Regenerate with `go test ./internal/replica -run TestGoldenFormat -update`
// ONLY for a deliberate format change: the image is what proves that
// stores written by the previous build still open.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current build")

const goldenDir = "testdata/golden"

var goldenAt = time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)

// constClock pins every store-side timestamp (snapshot write times), so
// the golden bytes do not depend on how often the code reads the clock.
func constClock() time.Time { return goldenAt }

const goldenBase = `
D:
  raw: [a, b]

D.raw:
  source: raw.csv

F:
  +D.agg: D.raw | T.count

T:
  count:
    type: groupby
    groupby: [a]
`

const goldenMain = goldenBase + `
  top:
    type: topn
    groupby: [a]
    orderby_column: [count DESC]
    limit: 5
`

const goldenDev = goldenBase + `
  dedupe:
    type: distinct
`

func goldenRun(i int) *history.RunRecord {
	return &history.RunRecord{
		Dashboard: "alpha", FlowHash: "h1", Status: "ok",
		StartedAt:  time.Date(2015, 6, 1, 0, 0, i, 0, time.UTC),
		DurationUS: int64(1000 * i), TasksRun: 2,
		Stages: []history.StageRecord{
			{Output: "agg", Stage: "T.count", RowsIn: 100 * i, Rows: 10, DurationUS: int64(700 * i), Path: "columnar"},
			{Output: "agg", Stage: "T.keep", RowsIn: 200, Rows: 100 * i, DurationUS: 300, Path: "row", Plan: "as-written"},
		},
	}
}

// wireLog records every leader response a follower sees.
type wireLog struct {
	inner http.RoundTripper
	host  string
	buf   *bytes.Buffer
}

func (w *wireLog) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := w.inner.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	fmt.Fprintf(w.buf, "GET %s -> %d\n", strings.TrimPrefix(r.URL.String(), w.host), resp.StatusCode)
	for _, h := range []string{"Content-Type", GenHeader, NextOffsetHeader, CommittedHeader} {
		if v := resp.Header.Get(h); v != "" {
			fmt.Fprintf(w.buf, "  %s: %s\n", h, v)
		}
	}
	fmt.Fprintf(w.buf, "  body %s\n", strconv.Quote(string(body)))
	return resp, nil
}

// goldenDirs lists every component directory the scenario writes, under
// its filesystem.
var goldenDirs = []string{"vcs", "catalog", "cache", "history"}

// dumpFS renders every file of the listed directories: snapshot write
// time and payload, WAL record types and payloads, parsed from the raw
// bytes with the documented framing.
func dumpFS(t *testing.T, out *bytes.Buffer, label string, fs store.FS, dirs []string) {
	t.Helper()
	for _, dir := range dirs {
		names, err := fs.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		for _, n := range names {
			raw, err := fs.ReadFile(dir + "/" + n)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(out, "== %s/%s/%s\n", label, dir, n)
			switch {
			case strings.HasPrefix(n, "snap-"):
				if len(raw) < 24 || string(raw[:8]) != "SISNAP01" {
					t.Fatalf("%s/%s: snapshot header malformed", dir, n)
				}
				at := time.Unix(0, int64(binary.LittleEndian.Uint64(raw[8:16]))).UTC()
				length := binary.LittleEndian.Uint32(raw[16:20])
				if int(length) != len(raw)-24 {
					t.Fatalf("%s/%s: snapshot length %d vs %d", dir, n, length, len(raw)-24)
				}
				fmt.Fprintf(out, "at %s crc %08x\n", at.Format(time.RFC3339Nano), binary.LittleEndian.Uint32(raw[20:24]))
				fmt.Fprintf(out, "payload %s\n", strconv.Quote(string(raw[24:])))
			case strings.HasPrefix(n, "wal-"):
				if len(raw) < 8 || string(raw[:8]) != "SIWAL001" {
					t.Fatalf("%s/%s: segment header malformed", dir, n)
				}
				for off := 8; off < len(raw); {
					length := int(binary.LittleEndian.Uint32(raw[off : off+4]))
					fmt.Fprintf(out, "record type %d crc %08x payload %s\n", raw[off+8],
						binary.LittleEndian.Uint32(raw[off+4:off+8]), strconv.Quote(string(raw[off+9:off+9+length])))
					off += 9 + length
				}
			default:
				t.Fatalf("unexpected file %s/%s", dir, n)
			}
		}
	}
}

// exportFollower renders a follower's replicated state and cursors.
func exportFollower(t *testing.T, out *bytes.Buffer, label string, f *Follower) {
	t.Helper()
	st := f.Status()
	for _, name := range persist.ComponentNames {
		payload, err := f.Components().State(name).ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		cs := st.Components[name]
		fmt.Fprintf(out, "== %s/%s cursor %d:%d\n", label, name, cs.Cursor.Gen, cs.Cursor.Offset)
		fmt.Fprintf(out, "state %s\n", strconv.Quote(string(payload)))
	}
	fmt.Fprintf(out, "== %s applied_seq %d\n", label, st.AppliedSeq)
}

// saveImage writes the listed directories of fs under root; loadImage
// is its inverse into a fresh MemFS.
func saveImage(t *testing.T, root string, fs store.FS, dirs []string) {
	t.Helper()
	for _, dir := range dirs {
		names, err := fs.List(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(root, filepath.FromSlash(dir)), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			raw, err := fs.ReadFile(dir + "/" + n)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(dir), n), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func loadImage(t *testing.T, root string, dirs []string) *store.MemFS {
	t.Helper()
	fs := store.NewMemFS()
	for _, dir := range dirs {
		entries, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(dir)))
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(dir), e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			h, err := fs.Create(dir + "/" + e.Name())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
			h.Close()
		}
	}
	return fs
}

// newLoopback serves h on a loopback listener for the test's lifetime.
func newLoopback(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func replicaDirs() []string {
	out := make([]string, len(goldenDirs))
	for i, d := range goldenDirs {
		out[i] = "replica/" + d
	}
	return out
}

// checkGolden compares got with the committed file; with write set
// (-update) it first replaces the file.
func checkGolden(t *testing.T, name string, got []byte, write bool) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if write {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got %.400s\nwant %.400s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
}

func TestGoldenFormat(t *testing.T) {
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	leaderFS := store.NewMemFS()

	// The flight recorder on its own (what `time -compare` writes): two
	// runs, the second crossing the threshold, so the history snapshot
	// carries a run whose deltas were judged against a baseline.
	rec, err := history.Open(leaderFS, history.Options{CompactRecords: 2, Now: constClock})
	must(err)
	for i := 1; i <= 2; i++ {
		_, err := rec.Record(goldenRun(i))
		must(err)
	}
	must(rec.Close())

	// The leader: four records per component force one compaction each,
	// a fifth lands in the fresh segment.
	st, err := persist.Open(leaderFS, persist.Options{Now: constClock, CompactRecords: 4})
	must(err)
	p := dashboard.NewPlatform()
	must(st.WirePlatform(p))
	p.Catalog.SetClock(fixedClock())
	repo := vcs.NewRepo("alpha")
	repo.SetClock(fixedClock())
	must(st.AdoptRepo(repo))
	commit := func(branch, msg, text string) {
		t.Helper()
		_, err := repo.Commit(branch, "ann", msg, []byte(text))
		must(err)
	}
	publish := func(name string, n int) {
		t.Helper()
		_, err := p.Catalog.Publish("alpha", name, sampleTable(n))
		must(err)
	}
	commit(vcs.DefaultBranch, "save", goldenBase)
	must(repo.Branch(vcs.DefaultBranch, "dev"))
	commit("dev", "add distinct", goldenDev) // 4th record: vcs compacts
	commit(vcs.DefaultBranch, "add topn", goldenMain)
	_, err = repo.Merge(vcs.DefaultBranch, "dev", "ann")
	must(err)

	publish("sales", 2)
	publish("metrics", 1)
	publish("sales", 3)
	publish("totals", 1) // catalog compacts
	must(p.Catalog.Remove("alpha", "metrics"))

	p.LastGood.Put("alpha", "raw", sampleTable(2))
	p.LastGood.Put("alpha", "ref", sampleTable(1))
	p.LastGood.Put("beta", "raw", sampleTable(0))
	p.LastGood.Put("alpha", "raw", sampleTable(3)) // cache compacts
	p.LastGood.Put("alpha", "ref", sampleTable(2))

	_, err = p.History.Record(goldenRun(3))
	must(err)

	var wire bytes.Buffer
	srv := newLoopback(t, leaderHandler(st))
	client := &http.Client{Transport: &wireLog{inner: http.DefaultTransport, host: srv, buf: &wire}}

	// Follower A bootstraps every component (wrapper snapshot), then
	// pulls one batch (wrapper record). Follower B does the same with a
	// one-record threshold, so its batch is compacted into a wrapper
	// snapshot that carries the post-batch cursor.
	fsA, fsB := store.NewMemFS(), store.NewMemFS()
	fA, err := New(Config{LeaderURL: srv, Client: client, FS: fsA, Retry: noRetry, Now: constClock})
	must(err)
	fB, err := New(Config{LeaderURL: srv, FS: fsB, Retry: noRetry, Now: constClock, CompactRecords: 1})
	must(err)
	must(fA.Sync(ctx))
	must(fB.Sync(ctx))

	commit(vcs.DefaultBranch, "tweak", goldenMain+"\n# tweak\n")
	publish("sales", 4)
	p.LastGood.Put("alpha", "raw", sampleTable(4))
	_, err = p.History.Record(goldenRun(4))
	must(err)
	must(fA.Sync(ctx))
	must(fB.Sync(ctx))
	for _, name := range persist.ComponentNames {
		if got := fA.Status().Components[name]; got.Bootstraps != 1 || got.Cursor != st.Dir(name).Cursor() {
			t.Fatalf("%s: follower A %+v, leader cursor %+v", name, got, st.Dir(name).Cursor())
		}
	}

	var format, state bytes.Buffer
	dumpFS(t, &format, "leader", leaderFS, goldenDirs)
	dumpFS(t, &format, "followerA", fsA, replicaDirs())
	dumpFS(t, &format, "followerB", fsB, replicaDirs())
	format.WriteString("== wire (follower A)\n")
	format.Write(wire.Bytes())
	exportFollower(t, &state, "live", fA)
	must(fA.Close())
	must(fB.Close())
	must(st.Close())

	if *updateGolden {
		must(os.RemoveAll(filepath.Join(goldenDir, "image")))
		saveImage(t, filepath.Join(goldenDir, "image", "leader"), leaderFS, goldenDirs)
		saveImage(t, filepath.Join(goldenDir, "image", "follower"), fsA, replicaDirs())
	}
	checkGolden(t, "format.txt", format.Bytes(), *updateGolden)
	checkGolden(t, "state.txt", state.Bytes(), *updateGolden)

	// The committed image — written by the build that last ran -update —
	// must recover, on leader and follower, to that same exported state.
	st2, err := persist.Open(loadImage(t, filepath.Join(goldenDir, "image", "leader"), goldenDirs), persist.Options{Now: constClock})
	must(err)
	defer st2.Close()
	srv2 := newLoopback(t, leaderHandler(st2))
	fresh, err := New(Config{LeaderURL: srv2, Retry: noRetry, Now: constClock})
	must(err)
	defer fresh.Close()
	must(fresh.Sync(ctx))
	restarted, err := New(Config{LeaderURL: srv2, FS: loadImage(t, filepath.Join(goldenDir, "image", "follower"), replicaDirs()), Retry: noRetry, Now: constClock})
	must(err)
	defer restarted.Close()
	var recovered, resumed bytes.Buffer
	exportFollower(t, &recovered, "live", fresh)
	exportFollower(t, &resumed, "live", restarted)
	checkGolden(t, "state.txt", recovered.Bytes(), false)
	checkGolden(t, "state.txt", resumed.Bytes(), false)
}
