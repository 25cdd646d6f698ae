package store

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"shareinsights/internal/obs"
)

func rec(i int) Record {
	return Record{Type: 1, Payload: []byte(fmt.Sprintf("record-%03d", i))}
}

func payloads(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r.Payload)
	}
	return out
}

// logicalState reduces a recovery to the record payloads it represents:
// the snapshot (encoded in tests as a joined payload list) plus replayed
// WAL records.
func logicalState(r *Recovery) []string {
	var out []string
	if len(r.Snapshot) > 0 {
		out = strings.Split(string(r.Snapshot), ",")
	}
	return append(out, payloads(r.Records)...)
}

func snapPayload(states []string) []byte { return []byte(strings.Join(states, ",")) }

func TestParseGen(t *testing.T) {
	cases := []struct {
		name, prefix string
		want         uint64
		ok           bool
	}{
		{"wal-00000001.si", "wal-", 1, true},
		{"wal-00012345.si", "wal-", 12345, true},
		{"snap-00000007.si", "snap-", 7, true},
		{"wal-00000001.si.tmp", "wal-", 0, false},
		{"wal-abc.si", "wal-", 0, false},
		{"wal-00000000.si", "wal-", 0, false}, // generation 0 is reserved
		{"snap-00000001.si", "wal-", 0, false},
	}
	for _, c := range cases {
		g, ok := parseGen(c.name, c.prefix)
		if g != c.want || ok != c.ok {
			t.Errorf("parseGen(%q, %q) = %d, %v; want %d, %v", c.name, c.prefix, g, ok, c.want, c.ok)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	fs := NewMemFS()
	d, r, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records) != 0 || r.Snapshot != nil {
		t.Fatalf("fresh dir recovered state: %+v", r)
	}
	for i := 0; i < 5; i++ {
		if err := d.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if b, n := d.WALSize(); n != 5 || b == 0 {
		t.Fatalf("WALSize = %d bytes, %d records", b, n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, r2, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	want := []string{"record-000", "record-001", "record-002", "record-003", "record-004"}
	if got := payloads(r2.Records); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if r2.TornBytes != 0 || r2.RecordCount != 5 {
		t.Fatalf("recovery stats: %+v", r2)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	fs := NewMemFS()
	d, _, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Append(rec(0))
	d.Append(rec(1))
	if err := d.Snapshot(snapPayload([]string{"record-000", "record-001"}), time.Unix(100, 0)); err != nil {
		t.Fatal(err)
	}
	d.Append(rec(2))
	d.Close()

	// Old generation files must be gone after compaction.
	names, _ := fs.List("data")
	for _, n := range names {
		if n == segName(1) || strings.HasSuffix(n, ".tmp") {
			t.Fatalf("stale file %s survived compaction (have %v)", n, names)
		}
	}
	_, r, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := logicalState(r); fmt.Sprint(got) != fmt.Sprint([]string{"record-000", "record-001", "record-002"}) {
		t.Fatalf("recovered %v", got)
	}
	if r.SnapshotBytes == 0 || !r.SnapshotAt.Equal(time.Unix(100, 0)) {
		t.Fatalf("snapshot metadata: %+v", r)
	}
}

func TestTornTailTruncatedAndRewritten(t *testing.T) {
	fs := NewMemFS()
	fs.MkdirAll("data")
	h, _ := fs.Create("data/" + segName(1))
	buf := append([]byte(nil), walMagic...)
	buf = frameRecord(buf, rec(0))
	buf = append(buf, []byte{0x42, 0x42, 0x42}...) // torn partial header
	h.Write(buf)
	h.Sync()
	h.Close()

	d, r, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloads(r.Records); fmt.Sprint(got) != fmt.Sprint([]string{"record-000"}) {
		t.Fatalf("recovered %v", got)
	}
	if r.TornBytes != 3 {
		t.Fatalf("TornBytes = %d, want 3", r.TornBytes)
	}
	// The segment was rewritten to the valid prefix: appends land after
	// record 0 and a clean reopen sees no torn bytes.
	if err := d.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	_, r2, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloads(r2.Records); fmt.Sprint(got) != fmt.Sprint([]string{"record-000", "record-001"}) {
		t.Fatalf("after rewrite recovered %v", got)
	}
	if r2.TornBytes != 0 {
		t.Fatalf("TornBytes = %d after rewrite", r2.TornBytes)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	fs := NewMemFS()
	fs.MkdirAll("data")
	if err := writeAtomic(fs, "data", snapName(2), encodeSnapshot(snapPayload([]string{"old-state"}), time.Unix(50, 0))); err != nil {
		t.Fatal(err)
	}
	h, _ := fs.Create("data/" + snapName(3))
	h.Write([]byte("SISNAP01 but then garbage that will not checksum"))
	h.Sync()
	h.Close()

	_, r, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := logicalState(r); fmt.Sprint(got) != fmt.Sprint([]string{"old-state"}) {
		t.Fatalf("recovered %v", got)
	}
	if r.CorruptSnapshots != 1 {
		t.Fatalf("CorruptSnapshots = %d", r.CorruptSnapshots)
	}
	names, _ := fs.List("data")
	for _, n := range names {
		if n == snapName(3) {
			t.Fatalf("corrupt snapshot not cleaned up: %v", names)
		}
	}
}

// TestCrashMatrixAckedPrefix is the core durability property: inject a
// crash at every write and fsync boundary of a scripted append workload,
// recover from the crash's durable image under each unsynced-bytes
// policy, and assert the recovered log is a prefix of the attempted one
// that contains at least every acknowledged record. Under the
// conservative policy (page cache gone) with a crash before the
// operation applies, recovery equals the acknowledged prefix exactly.
func TestCrashMatrixAckedPrefix(t *testing.T) {
	const total = 6
	type variant struct {
		op      Op
		mode    Mode
		partial int
	}
	variants := []variant{
		{OpWrite, Crash, 0},      // crash before any byte of the write lands
		{OpWrite, Crash, 4},      // torn write: 4 bytes land mid-record
		{OpWrite, CrashAfter, 0}, // write applied, crash before fsync
		{OpSync, Crash, 0},       // crash in fsync, durability unknown
		{OpSync, CrashAfter, 0},  // fsync applied, ack never returned
	}
	policies := []UnsyncedPolicy{DropUnsynced, KeepUnsynced, TornUnsynced}
	attempted := make([]string, total)
	for i := range attempted {
		attempted[i] = string(rec(i).Payload)
	}
	for _, v := range variants {
		for _, policy := range policies {
			for after := 0; ; after++ {
				name := fmt.Sprintf("%s/%d/partial=%d/policy=%d/after=%d", v.op, v.mode, v.partial, policy, after)
				ffs := NewFaultFS()
				ffs.Inject(Fault{Op: v.op, Path: "wal-", After: after, Mode: v.mode, Partial: v.partial})
				acked := 0
				d, _, err := OpenDir(ffs, "data", "test", nil)
				if err == nil {
					for i := 0; i < total; i++ {
						if d.Append(rec(i)) != nil {
							break
						}
						acked++
					}
					d.Close()
				}
				if !ffs.Crashed() {
					if err != nil {
						t.Fatalf("%s: OpenDir failed without crash: %v", name, err)
					}
					break // fault never fired: past the last matching op
				}
				d2, r, err := OpenDir(ffs.Durable(policy), "data", "test", nil)
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", name, err)
				}
				got := payloads(r.Records)
				if len(got) < acked || len(got) > total {
					t.Fatalf("%s: recovered %d records, acked %d", name, len(got), acked)
				}
				if fmt.Sprint(got) != fmt.Sprint(attempted[:len(got)]) {
					t.Fatalf("%s: recovered %v is not a prefix of attempted", name, got)
				}
				if policy == DropUnsynced && v.mode == Crash && len(got) != acked {
					t.Fatalf("%s: conservative recovery has %d records, acked %d", name, len(got), acked)
				}
				// The recovered dir must be fully serviceable: append and
				// re-recover.
				if err := d2.Append(Record{Type: 2, Payload: []byte("post")}); err != nil {
					t.Fatalf("%s: append after recovery: %v", name, err)
				}
				d2.Close()
			}
		}
	}
}

// Compaction crash points: a crash at any step of the snapshot rotation
// recovers the full acknowledged state, through either the old
// generation or the new one.
func TestSnapshotRotationCrashPoints(t *testing.T) {
	want := []string{"record-000", "record-001"}
	cases := []struct {
		name  string
		fault Fault
	}{
		{"mid-snapshot-write", Fault{Op: OpWrite, Path: "snap-", Mode: Crash, Partial: 10}},
		{"pre-snapshot-fsync", Fault{Op: OpSync, Path: "snap-", Mode: Crash}},
		{"mid-rename", Fault{Op: OpRename, Path: "snap-", Mode: Crash}},
		{"post-rename", Fault{Op: OpRename, Path: "snap-", Mode: CrashAfter}},
		{"new-segment-create", Fault{Op: OpCreate, Path: segName(2), Mode: Crash}},
		{"old-segment-remove", Fault{Op: OpRemove, Path: segName(1), Mode: Crash}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ffs := NewFaultFS()
			d, _, err := OpenDir(ffs, "data", "test", nil)
			if err != nil {
				t.Fatal(err)
			}
			d.Append(rec(0))
			d.Append(rec(1))
			ffs.Inject(c.fault)
			d.Snapshot(snapPayload(want), time.Unix(0, 0)) // error or not, the crash fires
			if !ffs.Crashed() {
				t.Fatal("fault did not fire")
			}
			_, r, err := OpenDir(ffs.Durable(DropUnsynced), "data", "test", nil)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if got := logicalState(r); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("recovered %v, want %v (snapshot=%dB records=%d)", got, want, len(r.Snapshot), len(r.Records))
			}
		})
	}
}

func TestFailedFsyncFailStopAndSnapshotRepair(t *testing.T) {
	ffs := NewFaultFS()
	d, _, err := OpenDir(ffs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	// Next fsync on the WAL fails: the append must not be acknowledged
	// and the dir turns fail-stop.
	ffs.Inject(Fault{Op: OpSync, Path: "wal-", Mode: FailIO})
	if err := d.Append(rec(1)); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("append with failed fsync: %v", err)
	}
	if err := d.Append(rec(2)); err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("append on damaged dir: %v", err)
	}
	if d.Damaged() == nil {
		t.Fatal("Damaged() = nil after failed fsync")
	}
	// A snapshot starts a fresh segment and repairs the dir. The caller
	// snapshots its in-memory state, which still holds only acked data.
	if err := d.Snapshot(snapPayload([]string{"record-000"}), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	if d.Damaged() != nil {
		t.Fatal("still damaged after snapshot repair")
	}
	if err := d.Append(rec(3)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	_, r, err := OpenDir(ffs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := logicalState(r); fmt.Sprint(got) != fmt.Sprint([]string{"record-000", "record-003"}) {
		t.Fatalf("recovered %v", got)
	}
}

func TestNoSpaceLeavesTornTail(t *testing.T) {
	ffs := NewFaultFS()
	d, _, err := OpenDir(ffs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(Fault{Op: OpWrite, Path: "wal-", Mode: FailNoSpace, Partial: 5})
	if err := d.Append(rec(1)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append under ENOSPC: %v", err)
	}
	if err := d.Append(rec(2)); err == nil {
		t.Fatal("damaged dir accepted an append after ENOSPC")
	}
	d.Close()
	// The 5 partial bytes are a torn tail for recovery to truncate.
	_, r, err := OpenDir(ffs.Durable(KeepUnsynced), "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloads(r.Records); fmt.Sprint(got) != fmt.Sprint([]string{"record-000"}) {
		t.Fatalf("recovered %v", got)
	}
	if r.TornBytes != 5 {
		t.Fatalf("TornBytes = %d, want 5", r.TornBytes)
	}
}

func TestStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	fs := NewMemFS()
	d, _, err := OpenDir(fs, "data", "vcs", reg)
	if err != nil {
		t.Fatal(err)
	}
	d.Append(rec(0))
	d.Append(rec(1))
	d.Snapshot(snapPayload([]string{"a", "b"}), time.Unix(0, 0))
	d.Close()

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		`si_store_appends_total{component="vcs"} 2`,
		`si_store_snapshots_total{component="vcs"} 1`,
		`si_store_recoveries_total{component="vcs"} 1`,
		`si_store_wal_bytes{component="vcs"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `si_store_fsyncs_total{component="vcs"}`) {
		t.Errorf("metrics missing fsync counter:\n%s", text)
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	d, _, err := OpenDir(fs, "vcs", "vcs", nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Append(rec(0))
	if err := d.Snapshot(snapPayload([]string{"record-000"}), time.Now()); err != nil {
		t.Fatal(err)
	}
	d.Append(rec(1))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, r, err := OpenDir(fs, "vcs", "vcs", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := logicalState(r); fmt.Sprint(got) != fmt.Sprint([]string{"record-000", "record-001"}) {
		t.Fatalf("recovered %v", got)
	}
}
