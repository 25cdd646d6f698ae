package colstore

import (
	"time"

	"shareinsights/internal/value"
)

// Fan runs a chain of Filter and MapExpr kernels over a batch a morsel at
// a time and folds each morsel's surviving rows straight into every sink,
// a GroupBy, so the chain's own output is never built: one pass over the
// input feeds every sink, and nothing is stored in between. The morsel's
// view, the filter's bitmap and kept positions, each map's output and
// each expression's temporaries are allocated once per run and reused
// for every morsel; a column with holes is made dense once.
//
// Its sinks' outputs are what GroupBy.Run returns over the chain's
// output, cell for cell and kind for kind: a fold copies key cells and
// min/max values out of the morsel, groups open in row order and sums
// fold in row order.
type Fan struct {
	// Chain is the kernels in order, each a *Filter or a *MapExpr; Sinks
	// are the *GroupBy kernels over its output.
	Chain, Sinks []Kernel
	// Stages reports the run, the chain's stages then the sinks: the rows
	// each was handed — so a chain stage's rows out are the next one's
	// in — and its time.
	Stages []FanStage
}

// FanStage is what one stage of a Fan did.
type FanStage struct {
	Rows int
	Took time.Duration
}

// Run runs the fan over in and returns each sink's output. ok is false,
// and nothing is returned, when the fan declines: a kernel is of another
// kind, or a map's morsel result is boxed or of a kind other than its
// first morsel's — the cases where a map's whole-batch evaluation starts
// over as one morsel. The caller then runs the chain as kernels.
func (f *Fan) Run(in *Batch) (outs []*Batch, ok bool, err error) { return f.run(in, morselRows) }

// run is Run over morsels of size input rows.
func (f *Fan) run(in *Batch, size int) ([]*Batch, bool, error) {
	n, nc := in.length, len(f.Chain)
	size = max(min(n, size), 1)
	// The view's columns: the input's, then those the maps add.
	width := len(in.cols)
	for _, k := range f.Chain {
		switch k := k.(type) {
		case *MapExpr:
			width = max(width, k.Out.Len())
		case *Filter:
		default:
			return nil, false, nil
		}
	}
	folds := make([]fold, len(f.Sinks))
	for i, k := range f.Sinks {
		g, isGroupBy := k.(*GroupBy)
		if !isGroupBy {
			return nil, false, nil
		}
		folds[i] = g.start(size)
	}
	m := morsel{cols: make([]fanCol, width), keep: Bitmap{words: make([]uint64, (size+63)/64)}}
	m.view.cols = make([]*Vec, width)
	for c := range m.cols {
		m.view.cols[c] = &m.cols[c].v
	}
	for c, v := range in.cols {
		if v.holes() {
			v = v.dense()
		}
		m.cols[c].base = v
	}
	steps := make([]fanStep, nc)
	for i, k := range f.Chain {
		if filter, ok := k.(*Filter); ok {
			steps[i] = fanStep{t: filter.Pred.over(&m.view, size), pos: make([]int32, 0, size)}
		} else {
			steps[i].t = k.(*MapExpr).Eval.over(&m.view, size)
		}
	}
	f.Stages = make([]FanStage, nc+len(folds))
	for lo := 0; lo == 0 || lo < n; lo += size {
		hi := min(lo+size, n)
		for c := range in.cols {
			w := &m.cols[c].window
			w.v = *w.base
			w.slide(lo, hi)
		}
		m.view.length, width = hi-lo, len(in.cols)
		for i, k := range f.Chain {
			start, st := time.Now(), &steps[i]
			f.Stages[i].Rows += m.view.length
			switch k := k.(type) {
			case *Filter:
				k.Pred.step(st.t, m.view.length, &m.keep)
				if idx := kept(st.pos, &m.keep, m.view.length); idx != nil {
					m.keepRows(idx, width)
				}
			case *MapExpr:
				r := k.Eval.step(st.t, m.view.length, nil)
				if r.kind == anyKind || lo > 0 && r.kind != st.kind {
					return nil, false, nil
				}
				st.kind, m.cols[k.Slot].v, width = r.kind, *r.densify(), k.Out.Len()
				st.t.release(r, k.Eval.owned)
			}
			f.Stages[i].Took += time.Since(start)
		}
		for j := range folds {
			start := time.Now()
			folds[j].push(&m.view)
			f.Stages[nc+j].Rows += m.view.length
			f.Stages[nc+j].Took += time.Since(start)
		}
	}
	outs := make([]*Batch, len(folds))
	for j := range folds {
		start := time.Now()
		var err error
		if outs[j], err = folds[j].finish(); err != nil {
			return nil, true, err
		}
		f.Stages[nc+j].Took += time.Since(start)
	}
	return outs, true, nil
}

// fanStep is one chain stage's state over a run: its expression's, the
// kept positions of a filter, the result kind of a map's first morsel.
type fanStep struct {
	t    *temps
	pos  []int32
	kind value.Kind
}

// morsel is a Fan's view of the rows of one morsel that its chain has
// kept so far: its columns are windows of the input's narrowed by each
// filter, and each map's output. A column that is already a selection
// when a filter narrows it composes into its own buffer (done pairs each
// selection composed with its result, so columns that shared one go on
// sharing one).
type morsel struct {
	view Batch
	cols []fanCol
	keep Bitmap
	done [][2][]int32
}

// fanCol is one column of a morsel's view, v: its window of the input
// column, or a map's output; sel is its buffer.
type fanCol struct {
	window
	sel []int32
}

// keepRows narrows the view's first w columns to its rows at idx.
func (m *morsel) keepRows(idx []int32, w int) {
	m.done = m.done[:0]
	m.view.length = len(idx)
next:
	for c := range w {
		v := &m.cols[c].v
		v.length = len(idx)
		switch {
		case v.kind == value.Null:
			continue
		case v.sel == nil:
			v.sel = idx
			continue
		}
		for _, d := range m.done {
			if same(d[0], v.sel) {
				v.sel = d[1]
				continue next
			}
		}
		if m.cols[c].sel == nil {
			m.cols[c].sel = make([]int32, cap(idx))
		}
		// In place when v.sel is this buffer: idx ascends, so each read
		// is at or after the write.
		dst := m.cols[c].sel[:len(idx)]
		for i, k := range idx {
			dst[i] = v.sel[k]
		}
		m.done = append(m.done, [2][]int32{v.sel, dst})
		v.sel = dst
	}
}
