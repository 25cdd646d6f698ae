package store

import (
	"errors"
	"strings"
	"sync"
)

// FaultFS wraps a MemFS and injects filesystem faults: torn writes,
// failed fsyncs, ENOSPC and crash points. After a crash fires, every
// subsequent operation fails with ErrCrashed; Durable then yields the
// disk image a recovery would open.
//
// The crash-point matrix of docs/DURABILITY.md maps onto faults like:
//
//	mid-record   {Op: OpWrite,  Mode: Crash, Partial: k}  // k bytes land
//	pre-fsync    {Op: OpSync,   Mode: Crash}              // data written, never synced
//	mid-rename   {Op: OpRename, Mode: Crash}              // temp file left behind
//	post-rename  {Op: OpRename, Mode: CrashAfter}         // rename durable, cleanup lost
type FaultFS struct {
	mem *MemFS

	mu      sync.Mutex
	crashed bool
	faults  []*Fault
}

// Errors injected by FaultFS.
var (
	// ErrCrashed is returned by every operation after a crash point fired.
	ErrCrashed = errors.New("faultfs: simulated crash")
	// ErrInjectedIO is the generic injected I/O failure (e.g. a failed fsync).
	ErrInjectedIO = errors.New("faultfs: injected I/O error")
	// ErrNoSpace simulates ENOSPC.
	ErrNoSpace = errors.New("faultfs: no space left on device")
)

// Op names an FS operation class for fault matching.
type Op string

// Operation classes faults can target.
const (
	OpCreate Op = "create"
	OpWrite  Op = "write"
	OpSync   Op = "sync"
	OpRename Op = "rename"
	OpRemove Op = "remove"
)

// Mode is what a fault does when it fires.
type Mode int

const (
	// Crash freezes the filesystem before the operation applies (for
	// OpWrite, after Partial bytes applied).
	Crash Mode = iota
	// CrashAfter applies the operation, then freezes the filesystem.
	CrashAfter
	// FailIO returns ErrInjectedIO without applying the operation.
	FailIO
	// FailNoSpace applies Partial bytes (writes only) then returns ErrNoSpace.
	FailNoSpace
)

// Fault is one injected failure. It fires on the (After+1)'th operation
// matching Op and Path (substring; empty matches everything), once.
type Fault struct {
	Op      Op
	Path    string
	After   int
	Mode    Mode
	Partial int
	fired   bool
}

// NewFaultFS returns a FaultFS over a fresh MemFS.
func NewFaultFS() *FaultFS { return &FaultFS{mem: NewMemFS()} }

// Inject arms a fault.
func (f *FaultFS) Inject(fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = append(f.faults, &fault)
}

// Crashed reports whether a crash point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Durable returns the crash's disk image under the given policy. It is
// typically called after Crashed() turns true, to reopen a store from
// exactly what would have survived.
func (f *FaultFS) Durable(policy UnsyncedPolicy) *MemFS { return f.mem.Durable(policy) }

// check runs the fault machinery for one operation. It returns the
// fault that fired (nil if none) and whether the FS is frozen.
func (f *FaultFS) check(op Op, path string) (*Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	for _, ft := range f.faults {
		if ft.fired || ft.Op != op {
			continue
		}
		if ft.Path != "" && !strings.Contains(path, ft.Path) {
			continue
		}
		if ft.After > 0 {
			ft.After--
			continue
		}
		ft.fired = true
		if ft.Mode == Crash || ft.Mode == CrashAfter {
			f.crashed = true
		}
		return ft, nil
	}
	return nil, nil
}

func (f *FaultFS) MkdirAll(dir string) error { return f.mem.MkdirAll(dir) }

func (f *FaultFS) Create(name string) (File, error) {
	ft, err := f.check(OpCreate, name)
	if err != nil {
		return nil, err
	}
	if ft != nil {
		switch ft.Mode {
		case Crash:
			return nil, ErrCrashed
		case CrashAfter:
			f.mem.Create(name)
			return nil, ErrCrashed
		default:
			return nil, ErrInjectedIO
		}
	}
	h, err := f.mem.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: h, name: name}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	h, err := f.mem.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: h, name: name}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.mem.ReadFile(name)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	ft, err := f.check(OpRename, newname)
	if err != nil {
		return err
	}
	if ft != nil {
		switch ft.Mode {
		case Crash:
			return ErrCrashed
		case CrashAfter:
			f.mem.Rename(oldname, newname)
			return ErrCrashed
		default:
			return ErrInjectedIO
		}
	}
	return f.mem.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	ft, err := f.check(OpRemove, name)
	if err != nil {
		return err
	}
	if ft != nil {
		switch ft.Mode {
		case Crash:
			return ErrCrashed
		case CrashAfter:
			f.mem.Remove(name)
			return ErrCrashed
		default:
			return ErrInjectedIO
		}
	}
	return f.mem.Remove(name)
}

func (f *FaultFS) List(dir string) ([]string, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return f.mem.List(dir)
}

func (f *FaultFS) SyncDir(dir string) error {
	if f.Crashed() {
		return ErrCrashed
	}
	return nil
}

// faultHandle routes a file handle's writes and syncs through the fault
// machinery.
type faultHandle struct {
	fs    *FaultFS
	inner File
	name  string
}

func (h *faultHandle) Write(p []byte) (int, error) {
	ft, err := h.fs.check(OpWrite, h.name)
	if err != nil {
		return 0, err
	}
	if ft != nil {
		partial := ft.Partial
		if partial > len(p) {
			partial = len(p)
		}
		switch ft.Mode {
		case Crash, CrashAfter:
			if ft.Mode == CrashAfter {
				partial = len(p)
			}
			if partial > 0 {
				h.inner.Write(p[:partial])
			}
			return partial, ErrCrashed
		case FailNoSpace:
			if partial > 0 {
				h.inner.Write(p[:partial])
			}
			return partial, ErrNoSpace
		default:
			return 0, ErrInjectedIO
		}
	}
	return h.inner.Write(p)
}

func (h *faultHandle) Sync() error {
	ft, err := h.fs.check(OpSync, h.name)
	if err != nil {
		return err
	}
	if ft != nil {
		switch ft.Mode {
		case Crash:
			return ErrCrashed
		case CrashAfter:
			h.inner.Sync()
			return ErrCrashed
		default:
			// A failed fsync leaves durability unknown: the data was
			// written but must not be acknowledged.
			return ErrInjectedIO
		}
	}
	return h.inner.Sync()
}

func (h *faultHandle) Close() error { return h.inner.Close() }
