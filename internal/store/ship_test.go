package store

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestShipFramesRoundTrip(t *testing.T) {
	fs := NewMemFS()
	d, _, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	start := d.Cursor()
	if start.Gen != 1 || start.Offset != int64(len(walMagic)) {
		t.Fatalf("fresh cursor = %+v", start)
	}
	for i := 0; i < 4; i++ {
		if err := d.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	frames, next, committed, err := d.ShipFrames(start, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != committed || next != d.Cursor() {
		t.Fatalf("next %+v, committed %+v, cursor %+v", next, committed, d.Cursor())
	}
	recs, err := ParseFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"record-000", "record-001", "record-002", "record-003"}
	if got := payloads(recs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shipped %v, want %v", got, want)
	}
	// Caught up: an empty ship from the committed cursor.
	frames, next2, _, err := d.ShipFrames(next, 0)
	if err != nil || len(frames) != 0 || next2 != next {
		t.Fatalf("caught-up ship = %d bytes, %+v, %v", len(frames), next2, err)
	}
}

func TestShipFramesBatchesRespectMax(t *testing.T) {
	fs := NewMemFS()
	d, _, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 8; i++ {
		d.Append(rec(i))
	}
	frameLen := recHeaderLen + len(rec(0).Payload)
	cur := Cursor{Gen: 1, Offset: int64(len(walMagic))}
	var all []Record
	steps := 0
	for {
		frames, next, committed, err := d.ShipFrames(cur, 3*frameLen)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) == 0 {
			if cur != committed {
				t.Fatalf("empty batch below committed: %+v vs %+v", cur, committed)
			}
			break
		}
		recs, err := ParseFrames(frames)
		if err != nil {
			t.Fatalf("batch at %+v: %v", cur, err)
		}
		if len(recs) > 3 {
			t.Fatalf("batch of %d records exceeds max", len(recs))
		}
		all = append(all, recs...)
		cur = next
		steps++
	}
	if len(all) != 8 || steps != 3 {
		t.Fatalf("shipped %d records in %d steps", len(all), steps)
	}
}

func TestShipFramesGoneAfterCompaction(t *testing.T) {
	fs := NewMemFS()
	d, _, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Append(rec(0))
	cur := d.Cursor()
	if err := d.Snapshot(snapPayload([]string{"record-000"}), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	d.Append(rec(1))
	if _, _, _, err := d.ShipFrames(cur, 0); !errors.Is(err, ErrShipGone) {
		t.Fatalf("stale-generation ship: %v", err)
	}
	// A cursor past the committed offset (e.g. from a leader that lost
	// acked state) is equally unservable.
	bad := d.Cursor()
	bad.Offset += 100
	if _, _, _, err := d.ShipFrames(bad, 0); !errors.Is(err, ErrShipGone) {
		t.Fatalf("past-committed ship: %v", err)
	}
	boot, err := d.ShipBootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if string(boot.Snapshot) != "record-000" {
		t.Fatalf("bootstrap snapshot = %q", boot.Snapshot)
	}
	recs, err := ParseFrames(boot.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloads(recs); fmt.Sprint(got) != fmt.Sprint([]string{"record-001"}) {
		t.Fatalf("bootstrap frames %v", got)
	}
	if boot.Next != d.Cursor() {
		t.Fatalf("bootstrap next %+v, cursor %+v", boot.Next, d.Cursor())
	}
}

// A failed append must never become visible to a follower: the written
// bytes are in the file, but the committed offset excludes them.
func TestShipFramesExcludeUnackedBytes(t *testing.T) {
	ffs := NewFaultFS()
	d, _, err := OpenDir(ffs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(Fault{Op: OpSync, Path: "wal-", Mode: FailIO})
	if err := d.Append(rec(1)); err == nil {
		t.Fatal("append with failed fsync succeeded")
	}
	frames, next, committed, err := d.ShipFrames(Cursor{Gen: 1, Offset: int64(len(walMagic))}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != committed {
		t.Fatalf("next %+v != committed %+v", next, committed)
	}
	recs, err := ParseFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloads(recs); fmt.Sprint(got) != fmt.Sprint([]string{"record-000"}) {
		t.Fatalf("shipped unacked bytes: %v", got)
	}
}

// When recovery falls back past a corrupt snapshot, multiple WAL
// generations stay retained; a bootstrap must stitch all of them, not
// just the current segment.
func TestShipBootstrapSpansRetainedGenerations(t *testing.T) {
	ffs := NewFaultFS()
	d, _, err := OpenDir(ffs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Append(rec(0))
	if err := d.Snapshot(snapPayload([]string{"record-000"}), time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	d.Append(rec(1))
	// The old-segment delete is best-effort; when it fails, wal-2 stays
	// behind next to the new generation.
	ffs.Inject(Fault{Op: OpRemove, Path: segName(2), Mode: FailIO})
	if err := d.Snapshot(snapPayload([]string{"record-000", "record-001"}), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	d.Append(rec(2))
	d.Close()
	// Corrupt the only snapshot: the next open replays wal-2 and wal-3.
	h, _ := ffs.Create("data/" + snapName(3))
	h.Write([]byte("SISNAP01 corrupted beyond recognition"))
	h.Sync()
	h.Close()
	d2, r, err := OpenDir(ffs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(r.Snapshot) != 0 || r.CorruptSnapshots != 1 {
		t.Fatalf("recovery after snapshot corruption: %+v", r)
	}
	if got := payloads(r.Records); fmt.Sprint(got) != fmt.Sprint([]string{"record-001", "record-002"}) {
		t.Fatalf("recovered %v", got)
	}
	d2.Append(rec(3))
	boot, err := d2.ShipBootstrap()
	if err != nil {
		t.Fatal(err)
	}
	if len(boot.Snapshot) != 0 {
		t.Fatalf("bootstrap has snapshot %q after corruption", boot.Snapshot)
	}
	recs, err := ParseFrames(boot.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if got := payloads(recs); fmt.Sprint(got) != fmt.Sprint([]string{"record-001", "record-002", "record-003"}) {
		t.Fatalf("bootstrap frames %v", got)
	}
	if boot.Next != d2.Cursor() {
		t.Fatalf("bootstrap next %+v, cursor %+v", boot.Next, d2.Cursor())
	}
}

func TestParseFramesRejectsTornInput(t *testing.T) {
	var buf []byte
	buf = frameRecord(buf, rec(0))
	if _, err := ParseFrames(buf[:len(buf)-2]); err == nil {
		t.Fatal("torn frame accepted")
	}
	buf[recHeaderLen] ^= 0xFF // flip a payload byte under the CRC
	if _, err := ParseFrames(buf); err == nil {
		t.Fatal("corrupt frame accepted")
	}
}

// TestShipFramesEndsBatchOnFrameBoundary pins the max= rule: a batch
// ends at the last whole frame within max bytes, and a first frame that
// alone exceeds max ships whole — a follower can always parse what it
// was sent and always makes progress.
func TestShipFramesEndsBatchOnFrameBoundary(t *testing.T) {
	fs := NewMemFS()
	d, _, err := OpenDir(fs, "data", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	payload := make([]byte, 100-recHeaderLen)
	for i := 0; i < 3; i++ {
		if err := d.Append(Record{Type: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		max        int
		wantFrames []int // records per batch
	}{
		{150, []int{1, 1, 1}}, // mid-frame cut backs off to one whole frame
		{50, []int{1, 1, 1}},  // smaller than any frame: the first ships whole
		{200, []int{2, 1}},
		{250, []int{2, 1}},
		{0, []int{3}},
	} {
		cur := Cursor{Gen: 1, Offset: int64(len(walMagic))}
		var got []int
		for {
			frames, next, committed, err := d.ShipFrames(cur, c.max)
			if err != nil {
				t.Fatalf("max=%d at %+v: %v", c.max, cur, err)
			}
			if len(frames) == 0 {
				if cur != committed {
					t.Fatalf("max=%d: empty batch below committed: %+v vs %+v", c.max, cur, committed)
				}
				break
			}
			recs, err := ParseFrames(frames)
			if err != nil {
				t.Fatalf("max=%d batch at %+v: %v", c.max, cur, err)
			}
			if next.Offset != cur.Offset+int64(len(frames)) {
				t.Fatalf("max=%d: next %+v does not follow %d bytes from %+v", c.max, next, len(frames), cur)
			}
			got = append(got, len(recs))
			cur = next
		}
		if fmt.Sprint(got) != fmt.Sprint(c.wantFrames) {
			t.Errorf("max=%d: batches of %v records, want %v", c.max, got, c.wantFrames)
		}
	}
}
