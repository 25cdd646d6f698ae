package replica

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"shareinsights/internal/store"
	"shareinsights/internal/store/persist"
)

// journaled reads a never-compacted component's whole WAL back as the
// records a State replays, each with its raw frame and the cursor past
// it (what a follower's wrapper record carries).
type journaledRecord struct {
	rec   store.Record
	frame []byte
	next  store.Cursor
}

func journaled(t *testing.T, d *store.Dir) []journaledRecord {
	t.Helper()
	var out []journaledRecord
	cur := store.Cursor{Gen: 1, Offset: 8}
	for {
		// max=1 is smaller than any frame, so each batch is one frame.
		frame, next, _, err := d.ShipFrames(cur, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) == 0 {
			return out
		}
		recs, err := store.ParseFrames(frame)
		if err != nil || len(recs) != 1 {
			t.Fatalf("batch at %+v: %d record(s), %v", cur, len(recs), err)
		}
		out = append(out, journaledRecord{recs[0], frame, next})
		cur = next
	}
}

func mustExport(t *testing.T, s store.State) []byte {
	t.Helper()
	b, err := s.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func applyAll(t *testing.T, s store.State, recs []store.Record) {
	t.Helper()
	for i, r := range recs {
		if err := s.ApplyRecord(r); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

// TestStateContract holds every store.State implementation — the four
// persist components and the follower's replica wrapper — to the one
// contract store.Component relies on, over the records a real leader
// journaled for the shared mutate workload:
//
//   - a state replayed from a snapshot cut mid-history plus the records
//     after it exports the same bytes as the state that lived through
//     all of them, and so does a replay from no snapshot at all;
//   - ApplySnapshot(nil) resets to the empty state;
//   - the leader's typed journal-time fold agrees with ApplyRecord: the
//     snapshot a compacting leader exported from its shadow, plus its
//     WAL tail, replays to those same bytes.
func TestStateContract(t *testing.T) {
	const rounds = 6
	plain := newLeaderEnv(t, store.NewMemFS(), persist.Options{})
	compacting := newLeaderEnv(t, store.NewMemFS(), persist.Options{CompactRecords: rounds})
	for _, e := range []*leaderEnv{plain, compacting} {
		e.p.Catalog.SetClock(fixedClock())
		for i := 0; i < rounds; i++ {
			e.mutate(t)
		}
	}
	type stateCase struct {
		name  string
		fresh func() store.State
		recs  []store.Record
		// shipped is a compacting leader's bootstrap of the same history
		// (nil where the case has none).
		shipped *store.Bootstrap
	}
	var cases []stateCase
	for _, name := range persist.ComponentNames {
		name := name
		c := stateCase{name: name, fresh: func() store.State { return persist.NewComponents().State(name) }}
		for _, j := range journaled(t, plain.st.Dir(name)) {
			c.recs = append(c.recs, j.rec)
		}
		boot, err := compacting.st.Dir(name).ShipBootstrap()
		if err != nil {
			t.Fatal(err)
		}
		c.shipped = boot
		cases = append(cases, c)
	}
	wrapper := stateCase{name: "replica/cache", fresh: func() store.State {
		return &followerComp{name: "cache", state: persist.NewComponents().State("cache")}
	}}
	for _, j := range journaled(t, plain.st.Dir("cache")) {
		wrapper.recs = append(wrapper.recs, store.Record{Type: recShip, Payload: encodeWrapper(j.next, j.frame)})
	}
	cases = append(cases, wrapper)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if len(c.recs) < rounds {
				t.Fatalf("only %d journaled record(s)", len(c.recs))
			}
			empty := mustExport(t, c.fresh())
			live := c.fresh()
			cut := len(c.recs) / 2
			applyAll(t, live, c.recs[:cut])
			snap := mustExport(t, live)
			applyAll(t, live, c.recs[cut:])
			want := mustExport(t, live)
			if bytes.Equal(want, empty) || bytes.Equal(snap, empty) {
				t.Fatal("workload left the state empty; the case is vacuous")
			}

			replayed := c.fresh()
			if err := replayed.ApplySnapshot(snap); err != nil {
				t.Fatal(err)
			}
			applyAll(t, replayed, c.recs[cut:])
			if got := mustExport(t, replayed); !bytes.Equal(got, want) {
				t.Fatalf("snapshot + tail replays to\n%s\nlive state exports\n%s", got, want)
			}
			genesis := c.fresh()
			if err := genesis.ApplySnapshot(nil); err != nil {
				t.Fatal(err)
			}
			applyAll(t, genesis, c.recs)
			if got := mustExport(t, genesis); !bytes.Equal(got, want) {
				t.Fatalf("replay from genesis exports\n%s\nwant\n%s", got, want)
			}
			if err := replayed.ApplySnapshot(nil); err != nil {
				t.Fatal(err)
			}
			if got := mustExport(t, replayed); !bytes.Equal(got, empty) {
				t.Fatalf("ApplySnapshot(nil) left\n%s\nwant the empty state\n%s", got, empty)
			}

			if c.shipped == nil {
				return
			}
			tail, err := store.ParseFrames(c.shipped.Frames)
			if err != nil {
				t.Fatal(err)
			}
			if c.name != "history" && (len(c.shipped.Snapshot) == 0 || len(tail) >= len(c.recs)) {
				t.Fatalf("compacting leader never compacted %s (snapshot %dB, %d tail records)", c.name, len(c.shipped.Snapshot), len(tail))
			}
			fromShadow := c.fresh()
			if err := fromShadow.ApplySnapshot(c.shipped.Snapshot); err != nil {
				t.Fatal(err)
			}
			applyAll(t, fromShadow, tail)
			if got := mustExport(t, fromShadow); !bytes.Equal(got, want) {
				t.Fatalf("leader shadow snapshot + tail replays to\n%s\nrecord replay exports\n%s", got, want)
			}
		})
	}
}

// TestComponentTableAgrees pins the one-row-per-component property:
// every surface that enumerates components — persist.ComponentNames,
// the store's status and recovery reports and its shipping directories,
// the leader's /replica/status and the follower's health report — lists
// the same names, so a component added to the table appears everywhere.
func TestComponentTableAgrees(t *testing.T) {
	e := newLeaderEnv(t, store.NewMemFS(), persist.Options{})
	e.mutate(t)
	want := append([]string(nil), persist.ComponentNames...)

	var status, recovered []string
	for _, cs := range e.st.Status() {
		status = append(status, cs.Component)
	}
	for _, rec := range e.st.Recoveries() {
		recovered = append(recovered, rec.Component)
	}
	for _, name := range want {
		if e.st.Dir(name) == nil {
			t.Errorf("Store.Dir(%q) is nil", name)
		}
		if persist.NewComponents().State(name) == nil {
			t.Errorf("Components.State(%q) is nil", name)
		}
	}
	if e.st.Dir("nope") != nil || persist.NewComponents().State("nope") != nil {
		t.Error("unknown component resolved")
	}

	rr := httptest.NewRecorder()
	leaderHandler(e.st).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/replica/status", nil))
	var body StatusBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	var shipped, followed []string
	for name := range body.Components {
		shipped = append(shipped, name)
	}
	f, err := New(Config{LeaderURL: e.ts.URL, FS: store.NewMemFS(), Retry: noRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name := range f.Status().Components {
		followed = append(followed, name)
	}
	sort.Strings(shipped)
	sort.Strings(followed)
	sorted := append([]string(nil), want...)
	sort.Strings(sorted)
	for label, got := range map[string][]string{"Store.Status": status, "Store.Recoveries": recovered} {
		if !equalStrings(got, want) {
			t.Errorf("%s lists %v, table has %v", label, got, want)
		}
	}
	for label, got := range map[string][]string{"/replica/status": shipped, "Follower.Status": followed} {
		if !equalStrings(got, sorted) {
			t.Errorf("%s lists %v, table has %v", label, got, sorted)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countingState is a State that only counts, so the fuzz target below
// exercises the wrapper decode and nothing behind it.
type countingState struct{ records int }

func (s *countingState) ApplySnapshot([]byte) error      { return nil }
func (s *countingState) ApplyRecord(store.Record) error  { s.records++; return nil }
func (s *countingState) ExportSnapshot() ([]byte, error) { return nil, nil }

// FuzzWrapperRecord feeds arbitrary bytes to the follower's replica-WAL
// decode — wrapper records (cursor + raw leader frames) and wrapper
// snapshots — as a restart would replay them. Malformed bytes must be an
// error, never a panic, and an accepted record must advance the cursor
// to exactly what it carried.
func FuzzWrapperRecord(f *testing.F) {
	d, _, err := store.OpenDir(store.NewMemFS(), "d", "d", nil)
	if err != nil {
		f.Fatal(err)
	}
	defer d.Close()
	if err := d.Append(store.Record{Type: 1, Payload: []byte("one")}, store.Record{Type: 2}); err != nil {
		f.Fatal(err)
	}
	frames, _, _, err := d.ShipFrames(store.Cursor{Gen: 1, Offset: 8}, 0)
	if err != nil {
		f.Fatal(err)
	}
	good := encodeWrapper(store.Cursor{Gen: 3, Offset: 99}, frames)
	f.Add([]byte(nil))
	f.Add(good)
	f.Add(good[:15])
	f.Add(good[:16])
	f.Add(good[:len(good)-1])
	f.Add([]byte(`{"gen":2,"off":8,"state":"e30="}`))
	f.Add([]byte(`{"gen":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		inner := &countingState{}
		fc := &followerComp{name: "fuzz", state: inner}
		if err := fc.ApplyRecord(store.Record{Type: recShip, Payload: data}); err == nil {
			cur, frames, derr := decodeWrapper(data)
			if derr != nil {
				t.Fatalf("accepted a record its decoder rejects: %v", derr)
			}
			recs, perr := store.ParseFrames(frames)
			if perr != nil || fc.status().Cursor != cur || inner.records != len(recs) || fc.status().FramesApplied != uint64(len(recs)) {
				t.Fatalf("accepted record: cursor %+v want %+v, %d applied want %d (%v)", fc.status().Cursor, cur, inner.records, len(recs), perr)
			}
		} else if fc.status() != (ComponentStatus{}) || inner.records != 0 {
			t.Fatalf("rejected record still moved the state: %+v, %d applied", fc.status(), inner.records)
		}
		_ = fc.ApplySnapshot(data) // error or not, it must return
	})
}
