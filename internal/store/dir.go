package store

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"shareinsights/internal/obs"
)

// Dir is one component's durable home: an append-only WAL segment plus a
// compacted snapshot, both named by generation so a crash at any point
// of a compaction leaves an unambiguous recovery choice.
//
// File layout (docs/DURABILITY.md):
//
//	snap-<gen>.si   full component state as of the start of segment <gen>
//	wal-<gen>.si    records appended since snapshot <gen>
//	*.tmp           in-flight snapshot/segment writes, deleted on open
//
// Invariant: snapshot generation g covers every record of all segments
// with generation < g, so recovery loads the newest valid snapshot and
// replays only segments with generation >= g. Compaction first makes the
// new snapshot durable, then creates the new segment, then deletes the
// old files — a crash between any two steps recovers to either the old
// or the new generation, never a mix.
//
// Error model: Append is acknowledged only after fsync returns. Any
// write or fsync failure leaves the segment's durable length unknown, so
// the Dir turns fail-stop: every later Append reports the original
// damage until a successful Snapshot starts a fresh segment. In-memory
// state stays serviceable throughout — durability degrades, the process
// does not.
type Dir struct {
	fs   FS
	path string

	mu         sync.Mutex
	seg        File
	gen        uint64 // current WAL segment generation
	snapGen    uint64 // newest durable snapshot generation (0 = none)
	walBytes   int    // payload bytes appended to the current segment
	walRecords int
	damaged    error
	closed     bool

	met *dirMetrics
}

// Recovery reports what opening a Dir found on disk.
type Recovery struct {
	// Component is the label the Dir was opened under.
	Component string `json:"component"`
	// Records are the WAL records replayed on top of the snapshot; the
	// caller applies them in order, then may drop the slice.
	Records []Record `json:"-"`
	// RecordCount is len(Records), kept for reporting after the caller
	// consumed the records.
	RecordCount int `json:"records_replayed"`
	// Snapshot is the newest valid snapshot payload (nil when none).
	Snapshot []byte `json:"-"`
	// SnapshotBytes is the snapshot payload size.
	SnapshotBytes int `json:"snapshot_bytes"`
	// SnapshotAt is the snapshot write time (zero when none).
	SnapshotAt time.Time `json:"snapshot_at,omitzero"`
	// TornBytes counts trailing WAL bytes dropped as a torn write.
	TornBytes int `json:"torn_bytes_dropped"`
	// CorruptSnapshots counts snapshot generations that failed to decode
	// and were skipped (recovery fell back to an older generation).
	CorruptSnapshots int `json:"corrupt_snapshots"`
}

// dirMetrics bundles the si_store_* instruments for one component.
type dirMetrics struct {
	appends, fsyncs, tornTails, snapshots *obs.Counter
	snapshotBytes, walBytes               *obs.Gauge
}

func newDirMetrics(m *obs.Registry, component string) *dirMetrics {
	if m == nil {
		return nil
	}
	return &dirMetrics{
		appends:       m.CounterVec("si_store_appends_total", "Durable WAL records appended, by component.", "component").With(component),
		fsyncs:        m.CounterVec("si_store_fsyncs_total", "File fsyncs issued by the store, by component.", "component").With(component),
		tornTails:     m.CounterVec("si_store_torn_tails_total", "Torn WAL tails detected and truncated on recovery, by component.", "component").With(component),
		snapshots:     m.CounterVec("si_store_snapshots_total", "Compacted snapshots written, by component.", "component").With(component),
		snapshotBytes: m.GaugeVec("si_store_snapshot_bytes", "Size of the newest durable snapshot payload, by component.", "component").With(component),
		walBytes:      m.GaugeVec("si_store_wal_bytes", "Bytes in the current WAL segment past the header, by component.", "component").With(component),
	}
}

func segName(gen uint64) string  { return fmt.Sprintf("wal-%08d.si", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%08d.si", gen) }

// parseGen extracts the generation from a "prefix-<gen>.si" file name.
func parseGen(name, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".si")
	if !ok {
		return 0, false
	}
	g, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || g == 0 {
		return 0, false
	}
	return g, true
}

// OpenDir opens (creating if needed) a component directory and runs the
// recovery pass: pick the newest snapshot that validates, replay every
// WAL segment at or past its generation truncating any torn tail, and
// leave an appendable segment behind. metrics may be nil; component
// labels the si_store_* series and the recovery report.
func OpenDir(fs FS, path, component string, metrics *obs.Registry) (*Dir, *Recovery, error) {
	if err := fs.MkdirAll(path); err != nil {
		return nil, nil, fmt.Errorf("store: mkdir %s: %w", path, err)
	}
	names, err := fs.List(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: list %s: %w", path, err)
	}
	rec := &Recovery{Component: component}
	var snapGens, walGens []uint64
	var stale []string
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			// An in-flight write that never renamed: a crash artifact.
			stale = append(stale, n)
			continue
		}
		if g, ok := parseGen(n, "snap-"); ok {
			snapGens = append(snapGens, g)
		} else if g, ok := parseGen(n, "wal-"); ok {
			walGens = append(walGens, g)
		}
	}
	// Newest snapshot that validates wins; corrupt generations are
	// skipped (and deleted) so recovery degrades to an older generation
	// rather than failing.
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	var snapGen uint64
	for _, g := range snapGens {
		data, rerr := fs.ReadFile(path + "/" + snapName(g))
		if rerr != nil {
			rec.CorruptSnapshots++
			stale = append(stale, snapName(g))
			continue
		}
		payload, at, derr := decodeSnapshot(data)
		if derr != nil {
			rec.CorruptSnapshots++
			stale = append(stale, snapName(g))
			continue
		}
		rec.Snapshot, rec.SnapshotAt, rec.SnapshotBytes, snapGen = payload, at, len(payload), g
		break
	}
	for _, g := range snapGens {
		if g < snapGen {
			stale = append(stale, snapName(g))
		}
	}
	// Replay segments the snapshot does not cover, oldest first. The
	// current segment (highest generation) is rewritten when its tail is
	// torn, so the next append lands after the last valid record.
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })
	cur := snapGen
	curRecs := []Record(nil)
	curRewrite := false
	curExists := false
	for _, g := range walGens {
		if g < snapGen {
			stale = append(stale, segName(g))
			continue
		}
		data, rerr := fs.ReadFile(path + "/" + segName(g))
		if rerr != nil {
			return nil, nil, fmt.Errorf("store: read segment %s: %w", segName(g), rerr)
		}
		recs, _, torn, _ := parseWAL(data)
		rec.Records = append(rec.Records, recs...)
		rec.TornBytes += torn
		if g >= cur {
			cur, curRecs, curRewrite, curExists = g, recs, torn > 0, true
		}
	}
	rec.RecordCount = len(rec.Records)
	if cur == 0 {
		cur = 1
	}
	d := &Dir{fs: fs, path: path, gen: cur, snapGen: snapGen, met: newDirMetrics(metrics, component)}
	if curExists && !curRewrite {
		if d.seg, err = fs.OpenAppend(path + "/" + segName(cur)); err != nil {
			err = fmt.Errorf("store: reopen segment %s: %w", segName(cur), err)
		}
	} else {
		// No segment yet (curRecs is empty), or a torn tail: the valid
		// prefix is materialized afresh.
		d.seg, err = d.startSegment(cur, curRecs)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, rc := range curRecs {
		d.walBytes += recHeaderLen + len(rc.Payload)
		d.walRecords++
	}
	// Best-effort cleanup of superseded generations and crash leftovers;
	// anything that survives is re-collected on the next open.
	for _, n := range stale {
		d.fs.Remove(path + "/" + n)
	}
	if d.met != nil {
		if rec.TornBytes > 0 {
			d.met.tornTails.Inc()
		}
		d.met.snapshotBytes.Set(float64(rec.SnapshotBytes))
		d.met.walBytes.Set(float64(d.walBytes))
		metrics.CounterVec("si_store_recoveries_total", "Recovery passes completed, by component.", "component").With(component).Inc()
	}
	return d, rec, nil
}

// startSegment durably materializes segment gen holding exactly recs —
// none for a fresh generation, the valid prefix for a torn one — with
// the same temp-file + fsync + rename discipline as snapshots, and opens
// it for append.
func (d *Dir) startSegment(gen uint64, recs []Record) (File, error) {
	buf := append([]byte(nil), walMagic...)
	for _, rc := range recs {
		buf = frameRecord(buf, rc)
	}
	if err := writeAtomic(d.fs, d.path, segName(gen), buf); err != nil {
		return nil, err
	}
	d.countFsyncs(2) // segment fsync + directory fsync
	seg, err := d.fs.OpenAppend(d.path + "/" + segName(gen))
	if err != nil {
		return nil, fmt.Errorf("store: open segment %s: %w", segName(gen), err)
	}
	return seg, nil
}

func (d *Dir) countFsyncs(n int) {
	if d.met != nil {
		d.met.fsyncs.Add(int64(n))
	}
}

// Append journals records and returns only after they are fsynced — the
// acknowledgment point. Multiple records land atomically-in-order: a
// crash keeps a prefix. After a failed append the Dir is damaged (see
// the type comment) until the next successful Snapshot.
func (d *Dir) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: %s: append on closed dir", d.path)
	}
	if d.damaged != nil {
		return fmt.Errorf("store: %s: wal damaged by earlier failure (snapshot to repair): %w", d.path, d.damaged)
	}
	var buf []byte
	for _, rc := range recs {
		buf = frameRecord(buf, rc)
	}
	if _, err := d.seg.Write(buf); err != nil {
		d.damaged = err
		return fmt.Errorf("store: %s: append: %w", d.path, err)
	}
	if err := d.seg.Sync(); err != nil {
		d.damaged = err
		return fmt.Errorf("store: %s: append fsync: %w", d.path, err)
	}
	d.walBytes += len(buf)
	d.walRecords += len(recs)
	if d.met != nil {
		d.met.appends.Add(int64(len(recs)))
		d.met.fsyncs.Inc()
		d.met.walBytes.Set(float64(d.walBytes))
	}
	return nil
}

// WALSize reports the current segment's payload bytes and record count —
// the caller's compaction trigger.
func (d *Dir) WALSize() (bytes, records int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.walBytes, d.walRecords
}

// Damaged reports the failure that turned the Dir fail-stop (nil when
// healthy).
func (d *Dir) Damaged() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.damaged
}

// Snapshot durably writes a full-state snapshot and starts a fresh WAL
// segment. The payload must cover every record appended so far: once the
// new generation is durable the old segment is deleted. A successful
// Snapshot also clears the damaged state — the suspect segment is no
// longer part of the recovery set.
func (d *Dir) Snapshot(payload []byte, at time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: %s: snapshot on closed dir", d.path)
	}
	next := d.gen + 1
	if err := writeAtomic(d.fs, d.path, snapName(next), encodeSnapshot(payload, at)); err != nil {
		return err
	}
	d.countFsyncs(2)
	seg, err := d.startSegment(next, nil)
	if err != nil {
		// The snapshot is durable, so no acknowledged state is at risk;
		// but with no appendable segment the Dir is fail-stop until the
		// next successful Snapshot (or reopen).
		d.damaged = err
		return err
	}
	if d.seg != nil {
		d.seg.Close()
	}
	oldGen, oldSnap := d.gen, d.snapGen
	d.seg, d.gen, d.snapGen = seg, next, next
	d.walBytes, d.walRecords = 0, 0
	d.damaged = nil
	// Superseded generations go last and best-effort: a crash that
	// preserves them costs disk, not correctness.
	d.fs.Remove(d.path + "/" + segName(oldGen))
	if oldSnap > 0 {
		d.fs.Remove(d.path + "/" + snapName(oldSnap))
	}
	if d.met != nil {
		d.met.snapshots.Inc()
		d.met.snapshotBytes.Set(float64(len(payload)))
		d.met.walBytes.Set(0)
	}
	return nil
}

// Close fsyncs and closes the current segment. Appends are synchronous,
// so Close adds no durability — it releases the handle.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.seg == nil {
		return nil
	}
	if d.damaged == nil {
		if err := d.seg.Sync(); err != nil {
			d.seg.Close()
			return fmt.Errorf("store: %s: close fsync: %w", d.path, err)
		}
		d.countFsyncs(1)
	}
	return d.seg.Close()
}
