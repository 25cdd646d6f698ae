package colstore

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"shareinsights/internal/schema"
	"shareinsights/internal/table"
	"shareinsights/internal/value"
)

// Fan is the engine's one stage runner. A run pushes a source batch a
// morsel at a time through a chain of row-local steps into one or more
// sinks:
//
//   - steps: a *Filter narrows the morsel to the rows its predicate
//     keeps, a *MapExpr computes a column into it, a *Limit passes its
//     first N rows, and a *Probe joins it: it probes the index its Join
//     builds over the run's
//     build batch, emitting at most a morsel of joined rows at a time (a
//     key with many build rows splits across morsels);
//   - sinks: Materialize builds the chain's output, a *GroupBy folds it,
//     a *TopN keeps its first Limit rows in a heap, a *Sort is a top-n
//     that keeps every row, and a *Branch runs steps of its own into one
//     of these but Materialize.
//
// Only the sinks store anything. The morsel's views, bitmap, kept and
// joined positions, each map's output and each expression's temporaries
// are allocated once per run and reused for every morsel; a column with
// holes is made dense once. A materialize sink allocates each output
// vector once, at its exact length, from a counting pass that runs the
// chain before the pass that writes: a column no step computed is a
// selection over the source (or the build side), and only computed
// columns are copied. A fold copies key cells and min/max values out of
// the morsel, and a top-n copies every cell of each row it keeps, so no
// morsel outlives its push. Must over a fan with no step calls its
// sink's Run on the whole batch: a group-by folds it, a sort sorts it,
// and a top-n pushes it into its heap, with no run around it.
//
// Every sink's output is its kernel's Run over the chain's output, cell
// for cell and kind for kind: groups open in row order and sums fold in
// row order, and a top-n is the stable sort's prefix, ties in input order.
type Fan struct {
	// Chain is the steps in order; every sink takes what the last keeps.
	// A *Probe that keeps its unmatched build rows is the only step, and
	// only Materialize takes its output.
	Chain, Sinks []Kernel
}

// Probe is a Join as a fan's step: the chain's rows are its left input,
// and the run's build batch its right.
type Probe Join

// Run implements Kernel: a probe runs in a Fan, which hands it its build
// side.
func (k *Probe) Run(*Batch) (*Batch, error) {
	return nil, fmt.Errorf("colstore: a probe runs in a fan")
}

// Materialize is the sink that builds a fan's output as a batch.
var Materialize Kernel = materialize{}

type materialize struct{}

// Run implements Kernel: the batch itself.
func (materialize) Run(b *Batch) (*Batch, error) { return b, nil }

// FanStage is what one stage of a run did: the rows it was handed — so a
// step's rows out are the next stage's in — and its time.
type FanStage struct {
	Rows int
	Took time.Duration
}

// wholeBatch is a morsel size no batch reaches: the source in one morsel.
const wholeBatch = math.MaxInt

// Run runs the fan over in — the probe side when the chain has a *Probe,
// whose build side is build — and returns each sink's output and what
// each stage did: the steps', then the sinks' (a branch's: the rows it
// is handed), then each branch's steps' and its sink's. ok is false, and nothing
// is returned, when the run declines: a map's morsel result is boxed or
// of another kind than its first morsel's, or a top-n's keys hold NaN or
// boxed cells, which a heap cannot order as the stable sort does.
func (f *Fan) Run(in, build *Batch) (outs []*Batch, stages []FanStage, ok bool, err error) {
	return new(fanRun).run(f, in, build, morselRows)
}

// Must is Run that starts over where the run declines, with the source as
// one morsel: no kind can move then, and a top-n materializes and sorts.
// A fan with no step hands its one sink the source whole: the sink
// kernel's Run.
func (f *Fan) Must(in, build *Batch) ([]*Batch, []FanStage, error) {
	if len(f.Chain) > 0 || len(f.Sinks) != 1 {
		return f.must(in, build, morselRows)
	}
	o := new(struct {
		out [1]*Batch
		st  [1]FanStage
	})
	start := time.Now()
	out, err := f.Sinks[0].Run(in)
	o.out[0], o.st[0] = out, FanStage{Rows: in.length, Took: time.Since(start)}
	return o.out[:], o.st[:], err
}

// must is Must by size rows at a time.
func (f *Fan) must(in, build *Batch, size int) ([]*Batch, []FanStage, error) {
	return new(fanRun).must(f, in, build, size)
}

// must is f's Must by size rows at a time, starting on r.
func (r *fanRun) must(f *Fan, in, build *Batch, size int) ([]*Batch, []FanStage, error) {
	outs, stages, ok, err := r.run(f, in, build, size)
	if !ok && err == nil {
		outs, stages, _, err = new(fanRun).run(f, in, build, wholeBatch)
	}
	return outs, stages, err
}

// one is a run of one step into Materialize by size rows at a time: the
// step kernel's Run.
func one(step Kernel, in, build *Batch, size int) (*Batch, error) {
	r := new(fanRun)
	r.oneBuf = [2]Kernel{step, Materialize}
	f := &r.one
	f.Chain, f.Sinks = r.oneBuf[:1], r.oneBuf[1:]
	outs, _, err := r.must(f, in, build, size)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// run is Run by size rows at a time, on r, which is fresh.
func (r *fanRun) run(f *Fan, in, build *Batch, size int) ([]*Batch, []FanStage, bool, error) {
	r.whole = size == wholeBatch
	if ok, err := r.begin(f, in, build, max(min(in.length, size), 1)); !ok || err != nil {
		return nil, nil, ok, err
	}
	n, passes := in.length, 1
	if r.collect != nil && r.counted {
		passes = 2
	}
	for pass := range passes {
		r.count, r.stop = pass < passes-1, false
		r.top.counting = r.count
		if r.p != nil {
			r.p.out.counting = r.count
		}
		for i := range r.steps {
			if l, isLimit := r.kern[i].(*Limit); isLimit {
				r.steps[i].left = l.N
			}
			if b := r.steps[i].br; b != nil {
				b.stop = false
			}
		}
		if r.p != nil {
			r.p.emitted = false
		}
		for lo := 0; (lo == 0 || lo < n) && !r.stop; lo += r.size {
			r.top.window(in, lo, min(lo+r.size, n))
			if !r.push(0, r.top) {
				return nil, nil, false, nil
			}
		}
		if r.p != nil && r.p.j.KeepRight {
			r.p.tail(r)
		}
		if r.count {
			r.collect.size(r)
		}
	}
	return r.finish()
}

// begin lays r out as a run of f over source batches like in, size rows
// a morsel: false when the run declines.
func (r *fanRun) begin(f *Fan, in, build *Batch, size int) (bool, error) {
	r.f, r.in, r.build, r.size = f, in, build, size
	r.kern = f.Chain
	stages := len(f.Chain) + len(f.Sinks)
	for _, k := range f.Sinks {
		if b, ok := k.(*Branch); ok {
			r.kern = append(slices.Clip(r.kern), b.Chain...)
			stages += len(b.Chain) + 1
		}
	}
	r.stages, r.outs = grown(r.stageBuf[:], stages), grown(r.outBuf[:], len(f.Sinks))
	return r.setup()
}

// finish returns each sink's output and what each stage did.
func (r *fanRun) finish() ([]*Batch, []FanStage, bool, error) {
	for j := range r.sinks {
		start := time.Now()
		var err error
		if r.outs[j], err = r.sinks[j].finish(r); err != nil {
			return nil, nil, true, err
		}
		stage := len(r.f.Chain) + j
		if b, ok := r.sinks[j].(*branch); ok {
			stage = b.sinkStage()
		}
		r.stages[stage].Took += time.Since(start)
	}
	return r.outs, r.stages, true, nil
}

// ErrDeclined is a streamed run's decline (Stream.Push).
var ErrDeclined = errors.New("colstore: the streamed run declined")

// Stream is a run of a Fan whose source arrives as a streaming Builder's
// batches instead of whole: each batch is one morsel, pushed through the
// chain into the sinks as it comes, so that no source table is built. A
// probe's build side is indexed before the first batch, and each batch
// probes it; its key index follows a dictionary the batches grow. A
// top-n's heap copies the rows it keeps, and numbers rows across
// batches. What does not stream is a sink that needs the rows whole: a
// materialize sink, which counts its source before it writes, and a sort
// with no limit, which keeps every row.
type Stream struct {
	r     fanRun
	kinds []value.Kind // the first batch's columns'
}

// Stream starts a streamed run of f, whose probe, if its chain has one,
// builds on build: nil when f does not stream. A probe that keeps its
// unmatched build rows runs into Materialize, so it does not either.
func (f *Fan) Stream(build *Batch) *Stream {
	for _, k := range f.Sinks {
		if b, ok := k.(*Branch); ok {
			k = b.Sink
		}
		switch k.(type) {
		case *GroupBy, *TopN:
		default:
			return nil
		}
	}
	return &Stream{r: fanRun{f: f, build: build, streamed: true}}
}

// Push runs b, a streaming Builder's batch (one no longer than the
// first), through the chain into the sinks. It returns ErrDeclined when the run declines — a column of b is
// of another kind than in the first batch, or a map's result moves kind,
// as Run declines — and nothing the run folded may then be used.
func (s *Stream) Push(b *Batch) error {
	r := &s.r
	if s.kinds == nil {
		if ok, err := r.begin(r.f, b, r.build, max(b.length, 1)); !ok || err != nil {
			return cmp.Or(err, ErrDeclined)
		}
		s.kinds = make([]value.Kind, len(b.cols))
		for c, v := range b.cols {
			s.kinds[c] = v.kind
		}
	}
	for c, v := range b.cols {
		if v.kind != s.kinds[c] {
			return ErrDeclined
		}
	}
	r.top.bases(b)
	if p := r.p; p != nil && p.x.kind != value.Null {
		// A typed key index that meets nulls or another kind moves to the
		// encoded keys, as a fold's does.
		if o := p.up.cols[p.j.LeftKeys[0]].origin; o >= 0 && (b.cols[o].kind != p.x.kind || b.cols[o].hasNulls()) {
			p.x.encode()
		}
	}
	if r.top.window(b, 0, b.length); !r.stop && !r.push(0, r.top) {
		return ErrDeclined
	}
	return nil
}

// Finish returns each sink's output and what each stage did, once the
// last batch is pushed.
func (s *Stream) Finish() ([]*Batch, []FanStage, error) {
	outs, stages, _, err := s.r.finish()
	return outs, stages, err
}

// fanRun is one run of a Fan: its views, its steps' and sinks' state.
type fanRun struct {
	f         *Fan
	in, build *Batch
	size      int
	whole     bool // the source is one morsel, and no run declines
	streamed  bool // the source arrives a batch at a time (Stream)
	outs      []*Batch
	kern      []Kernel // the chain's steps, then each branch's
	steps     []fanStep
	sinks     []fanSink
	stages    []FanStage
	top, last *morsel
	schema    *schema.Schema // the chain's output schema
	collect   *collect       // the materialize sink, if any
	p         *probe         // the chain's probe, if any
	counted   bool           // a step changes the row count: collect counts first
	count     bool           // this pass counts
	stop      bool           // a limit ran out
	// Room for the common run: a few steps and sinks, without a probe.
	stepBuf  [3]fanStep
	sinkBuf  [2]fanSink
	stageBuf [5]FanStage
	outBuf   [2]*Batch
	view     morsel
	c        collect
	folds    []foldSink
	heapBuf  heap
	// A one-kernel run's fan (one).
	one    Fan
	oneBuf [2]Kernel
}

// fanStep is one step's state over a run.
type fanStep struct {
	m    *morsel // the view it reads and narrows
	t    *temps
	pos  []int32
	kind value.Kind
	seen bool
	left int // a limit's rows still to pass
	// counts marks a step the counting pass runs.
	counts bool
	p      *probe
	br     *branch // the branch whose step it is, nil in the chain
}

// fanSink is one sink's state over a run: push takes the rows of a view
// the chain kept (false: the run declines), finish returns the output.
type fanSink interface {
	push(r *fanRun, m *morsel) bool
	finish(r *fanRun) (*Batch, error)
}

// setup lays the run out: the views the chain reads (the source's, and
// the joined rows' after a probe), which of their columns anything reads,
// and each step's and sink's state. ok is false when a top-n's key column
// holds NaN or boxed cells.
func (r *fanRun) setup() (bool, error) {
	f, in, build := r.f, r.in, r.build
	r.steps, r.sinks = grown(r.stepBuf[:], len(r.kern)), grown(r.sinkBuf[:], len(f.Sinks))
	// Walk the chain: each view's width, then its columns' origins.
	width, pw, direct := len(in.cols), 0, false
	for i, k := range f.Chain {
		switch k := k.(type) {
		case *MapExpr:
			w := k.Slot + 1
			if k.Out != nil {
				w = max(w, k.Out.Len())
			}
			if pw == 0 {
				width = max(width, w)
			} else {
				pw = max(pw, w)
			}
		case *Probe:
			pw = len(k.Cols)
			direct = i == len(f.Chain)-1 && len(f.Sinks) == 1 && f.Sinks[0] == Materialize
		}
	}
	m := r.view.init(make([]fanCol, width), r.size, true)
	for c := range in.cols {
		m.cols[c].origin = c
	}
	r.top, r.schema = m, in.schema
	for i, k := range f.Chain {
		r.steps[i].m = m
		switch k := k.(type) {
		case *Filter:
			r.counted = true
			if m.keep.words == nil {
				m.keep.words = make([]uint64, (r.size+63)/64)
			}
		case *Limit:
			r.counted = true
		case *MapExpr:
			if k.Out != nil {
				r.schema = k.Out
			}
			m.cols[k.Slot].origin = computed
		case *Probe:
			j := (*Join)(k)
			if build == nil || i > 0 && j.KeepRight || r.p != nil {
				return true, fmt.Errorf("colstore: a fan's join probes first or after its steps, once, given a build side")
			}
			r.counted = true
			for _, jc := range j.Cols {
				// The probe writes positions alone: a computed column takes
				// the joined rows' view.
				direct = direct && (jc.Right || m.cols[jc.Col].origin != computed)
			}
			out := new(morsel).init(make([]fanCol, pw), r.size, !direct)
			out.track = true
			for c, jc := range j.Cols {
				out.cols[c].origin = -jc.Col - 2
				if !jc.Right {
					out.cols[c].origin = m.cols[jc.Col].origin
				}
			}
			r.p = &probe{j: j, up: m, out: out, direct: direct}
			if l := slices.IndexFunc(f.Chain[i:], func(k Kernel) bool { _, ok := k.(*Limit); return ok }); l > 0 {
				r.p.limit = i + l
			}
			r.steps[i].p = r.p
			m, r.schema = out, j.Out
		default:
			return true, fmt.Errorf("colstore: %T is no step", k)
		}
	}
	r.last = m
	// What each view's columns feed: the sinks first, then each step back.
	next, stage := len(f.Chain), len(f.Chain)+len(f.Sinks)
	for j, k := range f.Sinks {
		b, ok := k.(*Branch)
		if !ok {
			s, err := r.sinkOf(k, j, m, r.schema)
			if err != nil {
				return true, err
			}
			r.sinks[j] = s
			continue
		}
		br := &branch{from: next, to: next + len(b.Chain), stage: stage}
		next, stage = br.to, stage+len(b.Chain)+1
		sch, err := r.branch(br, b, m)
		if err == nil {
			br.sink, err = r.sinkOf(b.Sink, j, &br.m, sch)
		}
		if err != nil {
			return true, err
		}
		r.sinks[j] = br
		r.readBack(br.from, br.to, false)
		for c := range m.cols {
			m.cols[c].live = m.cols[c].live || br.m.cols[c].live
		}
	}
	r.top.track = r.collect != nil || r.p != nil
	if p := r.p; p != nil && p.j.KeepRight && (len(f.Chain) > 1 || r.collect == nil || len(f.Sinks) > 1) {
		return true, fmt.Errorf("colstore: a join that keeps its unmatched build rows runs alone into Materialize")
	}
	// The counting pass runs the filters, limits and probes, and the maps
	// whose columns they read: it reads and narrows only those columns.
	r.readBack(0, len(f.Chain), true)
	r.top.bases(in)
	for i, k := range r.kern {
		st := &r.steps[i]
		switch k := k.(type) {
		case *Filter:
			st.t, st.pos = k.Pred.over(&st.m.view, r.size), make([]int32, 0, r.size)
		case *MapExpr:
			st.t = k.Eval.over(&st.m.view, r.size)
		case *Limit:
			st.pos, st.left = identity(max(min(k.N, r.size), 0)), k.N
		case *Probe:
			st.p.build(r)
		}
	}
	return true, nil
}

// sinkOf sets sink k, the fan's j'th, up over view m of schema sch.
func (r *fanRun) sinkOf(k Kernel, j int, m *morsel, sch *schema.Schema) (fanSink, error) {
	switch k := k.(type) {
	case materialize:
		if r.collect != nil || m != r.last {
			return nil, fmt.Errorf("colstore: a fan materializes once, from its chain")
		}
		r.collect = &r.c
		m.readComputed()
		return r.collect, nil
	case *GroupBy:
		for _, c := range k.Keys {
			m.cols[c].live = true
		}
		for _, a := range k.Aggs {
			if a.Col >= 0 {
				m.cols[a.Col].live = true
			}
		}
		if r.folds == nil {
			r.folds = make([]foldSink, len(r.f.Sinks))
		}
		r.folds[j].fold = k.start(r.size)
		return &r.folds[j], nil
	case *TopN, *Sort:
		keys, limit := sortOf(k)
		return r.newHeap(keys, limit, m, sch)
	}
	return nil, fmt.Errorf("colstore: %T is no sink", k)
}

// branch lays out branch br, b's steps over the chain's output view up,
// and returns the schema its sink takes.
func (r *fanRun) branch(br *branch, b *Branch, up *morsel) (*schema.Schema, error) {
	width, sch := len(up.cols), r.schema
	for _, k := range b.Chain {
		if k, ok := k.(*MapExpr); ok {
			width = max(width, k.Slot+1)
			if k.Out != nil {
				width = max(width, k.Out.Len())
			}
		}
	}
	m := br.m.init(make([]fanCol, width), r.size, true)
	for i, k := range b.Chain {
		st := &r.steps[br.from+i]
		st.m, st.br = m, br
		switch k := k.(type) {
		case *Filter:
			if m.keep.words == nil {
				m.keep.words = make([]uint64, (r.size+63)/64)
			}
		case *Limit:
		case *MapExpr:
			if k.Out != nil {
				sch = k.Out
			}
		default:
			return nil, fmt.Errorf("colstore: %T is no branch step", k)
		}
	}
	return sch, nil
}

// readBack marks, from step to-1 back to step from, the columns each
// step reads live, and read by the counting pass where count is set.
func (r *fanRun) readBack(from, to int, count bool) {
	for i := to - 1; i >= from; i-- {
		st := &r.steps[i]
		st.counts = count
		switch k := r.kern[i].(type) {
		case *Filter:
			st.m.read(k.Pred, count)
		case *MapExpr:
			st.counts = st.m.cols[k.Slot].count
			st.m.read(k.Eval, st.counts)
		case *Probe:
			for c, jc := range k.Cols {
				if !jc.Right {
					up := &st.m.cols[jc.Col]
					up.live, up.count = up.live || st.p.out.cols[c].live, up.count || st.p.out.cols[c].count
				}
			}
			for _, c := range k.LeftKeys {
				st.m.cols[c].live, st.m.cols[c].count = true, true
			}
		}
	}
}

// grown is s at length n: in place when it has the room.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// sortOf is a top-n sink's keys and row budget: a sort keeps every row.
func sortOf(k Kernel) ([]table.SortKey, int) {
	if s, ok := k.(*Sort); ok {
		return s.Keys, math.MaxInt
	}
	t := k.(*TopN)
	return t.Keys, t.Limit
}

// push runs steps i on over the rows of view m and pushes what they keep
// into the sinks. It is false when the run declines.
func (r *fanRun) push(i int, m *morsel) bool { return r.walk(i, len(r.f.Chain), nil, m) }

// walk runs steps i to end-1 — branch br's, or the chain's for nil — over
// the rows of view m and pushes what they keep into the sinks, or br's.
func (r *fanRun) walk(i, end int, br *branch, m *morsel) bool {
	stage := i
	if br != nil {
		stage = br.stage + i - br.from
	}
	for ; i < end; i, stage = i+1, stage+1 {
		start, st := time.Now(), &r.steps[i]
		if r.count && !st.counts {
			continue
		}
		if !r.count {
			r.stages[stage].Rows += m.view.length
		}
		switch k := r.kern[i].(type) {
		case *Filter:
			k.Pred.step(st.t, m.view.length, &m.keep)
			if idx := kept(st.pos, &m.keep, m.view.length); idx != nil {
				m.keepRows(idx)
			}
		case *MapExpr:
			res := k.Eval.step(st.t, m.view.length, nil)
			if !r.whole && (res.kind == anyKind || st.seen && res.kind != st.kind) {
				return false
			}
			st.kind, st.seen = res.kind, true
			m.cols[k.Slot].v, m.width = *res.densify(), max(m.width, k.Slot+1)
			st.t.release(res, k.Eval.owned)
		case *Limit:
			if m.view.length >= st.left {
				if len(st.pos) < st.left {
					st.pos = identity(st.left) // a whole run's joined rows
				}
				m.keepRows(st.pos[:max(st.left, 0)])
				if br != nil {
					br.stop = true
				} else {
					r.stop = true
				}
			}
			st.left -= m.view.length
		case *Probe:
			return st.p.probe(r, i, m, start)
		}
		r.stages[stage].Took += time.Since(start)
	}
	if br != nil {
		return r.deliver(br.sinkStage(), br.sink, m)
	}
	return r.sink(m)
}

// sink pushes the rows of view m into the sinks, or counts them while
// the run counts.
func (r *fanRun) sink(m *morsel) bool {
	if r.count {
		r.collect.total += m.view.length
		return true
	}
	for j, s := range r.sinks {
		b, ok := s.(*branch)
		if ok {
			// A branch's stage is the rows it is handed; its sink's follows
			// its steps'.
			r.stages[len(r.f.Chain)+j].Rows += m.view.length
			ok = b.push(r, m)
		} else {
			ok = r.deliver(len(r.f.Chain)+j, s, m)
		}
		if !ok {
			return false
		}
	}
	return true
}

// deliver pushes the rows of view m into sink s, whose stage is stage.
func (r *fanRun) deliver(stage int, s fanSink, m *morsel) bool {
	start, st := time.Now(), &r.stages[stage]
	st.Rows += m.view.length
	ok := s.push(r, m)
	st.Took += time.Since(start)
	return ok
}

// Branch is a sink with steps of its own: a consumer's first group, run
// in its inline input's fan. Its Chain, row-local steps (filters,
// map-exprs and limits, no probe), narrows its own view of each morsel
// the fan's chain keeps, and pushes what it keeps into its Sink, a
// group-by, a top-n or a sort. A limit that runs out ends the branch, not
// the run.
type Branch struct {
	Chain []Kernel
	Sink  Kernel
}

// Run implements Kernel: a branch runs in a fan.
func (k *Branch) Run(*Batch) (*Batch, error) {
	return nil, fmt.Errorf("colstore: a branch runs in a fan")
}

// branch is a *Branch sink's state over a run: its view, its steps in
// the run's, and its sink's.
type branch struct {
	m        morsel
	from, to int // its steps
	stage    int // its first step's stage; its sink's follows its last
	sink     fanSink
	stop     bool // a limit ran out
}

// sinkStage is the stage of the branch's sink.
func (b *branch) sinkStage() int { return b.stage + b.to - b.from }

// push runs the branch over the rows of view m.
func (b *branch) push(r *fanRun, m *morsel) bool {
	if b.stop {
		return true
	}
	v := &b.m
	for c := range m.width {
		if v.cols[c].live {
			v.cols[c].v = m.cols[c].v
		}
	}
	v.view.length, v.width, v.done = m.view.length, m.width, v.done[:0]
	if n := (m.view.length + 63) / 64; v.keep.words != nil && len(v.keep.words) < n {
		v.keep.words = make([]uint64, n) // a whole run's joined rows
	}
	return r.walk(b.from, b.to, b, v)
}

func (b *branch) finish(r *fanRun) (*Batch, error) { return b.sink.finish(r) }

// computed is the origin of a column a step computed.
const computed = -1

// morsel is a run's view of the rows of one morsel that its chain has
// kept so far — the source's, or the joined rows a probe emitted — and
// where they came from. Its columns are windows of the source's (of the
// probe's input, and of the build side), narrowed by each filter, and the
// maps' outputs. A column that is already a selection when a filter
// narrows it composes into its own buffer (done pairs each selection
// composed with its result, so columns that shared one go on sharing
// one). Only live columns — those a later step or a sink reads — are
// windowed and narrowed.
type morsel struct {
	view  Batch
	cols  []fanCol
	width int // the columns set so far in this morsel
	keep  Bitmap
	done  [][2][]int32
	dbuf  [2][2][]int32
	// rows are the view's rows' positions in up's view, or in the source
	// from lo; nil reads as the identity. bld are the build rows of a
	// probe's view.
	rows, bld []int32
	rowBuf    []int32
	track     bool // rows are kept: the materialize sink or a probe reads them
	counting  bool // this pass counts: only the columns it reads are narrowed
	viewBuf   [8]*Vec
	up        *morsel
	lo, size  int
}

// fanCol is one column of a morsel's view, v: its window of the input
// column, or a map's output; sel is its buffer. live marks a column a
// later step or a sink reads; origin is a source column's index,
// computed, or a build column c as -c-2.
type fanCol struct {
	window
	sel    []int32
	live   bool
	count  bool // the counting pass reads it
	origin int
}

// init sets m up as a view of the columns cols, fresh, of at most size
// rows; with views unset, only its columns' origins are kept.
func (m *morsel) init(cols []fanCol, size int, views bool) *morsel {
	width := len(cols)
	m.size, m.cols, m.done = size, cols, m.dbuf[:0]
	for c := range m.cols {
		m.cols[c].origin = computed
	}
	if views {
		m.view.cols = grown(m.viewBuf[:], width)
		for c := range m.cols {
			m.view.cols[c] = &m.cols[c].v
		}
	}
	return m
}

// read marks the columns e reads live, and read by the counting pass
// when count is set.
func (m *morsel) read(e *VecEval, count bool) {
	for _, l := range e.leaves {
		if l.col >= 0 {
			m.cols[l.col].live = true
			m.cols[l.col].count = m.cols[l.col].count || count
		}
	}
}

// readComputed marks the computed columns live: a sink copies them.
func (m *morsel) readComputed() {
	for c := range m.cols {
		if m.cols[c].origin == computed {
			m.cols[c].live = true
		}
	}
}

// bases has the view's live columns read the source columns of b, each
// made dense first where it has holes (leaf.vec).
func (m *morsel) bases(b *Batch) {
	for c, v := range b.cols {
		if m.cols[c].live {
			m.cols[c].base = v.holeless()
		}
	}
}

// window points the view at source rows [lo, hi).
func (m *morsel) window(in *Batch, lo, hi int) {
	for c := range in.cols {
		if m.cols[c].live {
			w := &m.cols[c].window
			w.v = *w.base
			w.slide(lo, hi)
		}
	}
	m.view.length, m.width, m.rows, m.lo = hi-lo, len(in.cols), nil, lo
}

// reads reports whether this pass reads column c.
func (m *morsel) reads(c int) bool {
	return m.cols[c].live && (!m.counting || m.cols[c].count)
}

// row is the source row of the view's row k, -1 for none.
func (m *morsel) row(k int) int32 {
	r := int32(k)
	if m.rows != nil {
		r = m.rows[k]
	}
	if m.up == nil {
		return int32(m.lo) + r
	}
	if r < 0 {
		return -1
	}
	return m.up.row(int(r))
}

// keepRows narrows the view to its rows at idx, ascending.
func (m *morsel) keepRows(idx []int32) {
	m.done = m.done[:0]
	m.view.length = len(idx)
	switch {
	case !m.track:
	case m.rows == nil:
		if m.rowBuf == nil {
			m.rowBuf = make([]int32, 0, m.size)
		}
		m.rows = append(m.rowBuf[:0], idx...)
	default:
		m.narrow(&m.rows, idx)
	}
	if m.bld != nil {
		m.narrow(&m.bld, idx)
	}
	for c := range m.width {
		v := &m.cols[c].v
		if !m.reads(c) {
			continue
		}
		v.length = len(idx)
		switch {
		case v.kind == value.Null:
		case v.sel == nil:
			v.sel = idx
		default:
			// In place when v.sel is this column's buffer: idx ascends, so
			// each read is at or after the write.
			v.sel = m.compose(c, v.sel, idx)
		}
	}
}

// narrow narrows positions *p to idx in place, and has the columns that
// select through them follow.
func (m *morsel) narrow(p *[]int32, idx []int32) {
	old := *p
	for i, k := range idx {
		old[i] = old[k]
	}
	*p = old[:len(idx)]
	m.done = append(m.done, [2][]int32{old, *p})
}

// probe is a *Join step's state over a run: the index over the build
// side, and the joined rows it emits — into the materialize sink directly
// when nothing follows it, else a morsel at a time into out.
type probe struct {
	j                 *Join
	up, out           *morsel
	x                 *keyIndex
	head, next, count []int32
	rids              []int32
	probed            []bool
	ids, lp, rp       []int32
	direct, emitted   bool
	limit             int   // the first limit step after the probe, or 0
	pad               int32 // the null row of the build columns out reads, when the probe keeps unmatched rows
}

// build indexes the build side and lays out the joined rows' view.
func (p *probe) build(r *fanRun) {
	k, right := p.j, r.build
	var lbuf, rbuf [1]*Vec
	left, rkeys := lbuf[:0], rbuf[:0]
	for _, c := range k.RightKeys {
		rkeys = append(rkeys, right.cols[c])
	}
	for _, c := range k.LeftKeys {
		v := allNull // a computed key: the encoded path
		if o := p.up.cols[c].origin; o >= 0 {
			v = r.in.cols[o]
		}
		left = append(left, v)
	}
	p.x = newKeyIndex(left, rkeys)
	ints := make([]int32, 2*right.length)
	p.rids = p.x.assign(right, k.RightKeys, 0, ints[:right.length], true)
	// Chain the right rows of each key in row order: head[id] is the
	// first, next[row] the following one, -1 ends the chain. Linking in
	// reverse keeps every chain ascending.
	nk := p.x.size()
	p.next, ints = ints[right.length:], make([]int32, 2*nk)
	p.head, p.count = ints[:nk], ints[nk:]
	for id := range p.head {
		p.head[id] = -1
	}
	for row := right.length - 1; row >= 0; row-- {
		id := p.rids[row]
		p.next[row], p.head[id] = p.head[id], int32(row)
		p.count[id]++
	}
	if k.KeepRight {
		p.probed = make([]bool, nk)
	}
	if p.direct {
		p.ids = make([]int32, r.size)
		return
	}
	// The joined rows' view reads each build column whole: dense, and with
	// a null row at pad for a probe row no build row joins.
	size := r.size
	if r.whole {
		size = 0
	}
	ints = make([]int32, r.size+2*size)
	p.ids, p.lp, p.rp, p.pad = ints[:r.size], ints[r.size:r.size+size], ints[r.size+size:], -1
	for c, jc := range k.Cols {
		if !jc.Right || !p.out.cols[c].live {
			continue
		}
		v := right.cols[jc.Col]
		if k.KeepLeft {
			idx := identity(right.length + 1)
			idx[right.length], p.pad = -1, int32(right.length)
			v = gather(v, idx)
		}
		p.out.cols[c].base = v.holeless()
	}
}

// probe joins the rows of view m, step i of the run, started at start.
func (p *probe) probe(r *fanRun, i int, m *morsel, start time.Time) bool {
	k := p.j
	ids := p.x.assign(&m.view, k.LeftKeys, 0, p.ids, false)
	if p.direct {
		c, out := r.collect, 0
		for j, id := range ids {
			if id >= 0 && p.probed != nil {
				p.probed[id] = true
			}
			switch {
			case r.count && id >= 0:
				c.total += int(p.count[id])
			case r.count:
				c.total += b2i(k.KeepLeft)
			case id >= 0:
				row := m.row(j)
				for b := p.head[id]; b >= 0; b = p.next[b] {
					c.rows[c.n], c.bld[c.n] = row, b
					c.n, out = c.n+1, out+1
				}
			case k.KeepLeft:
				c.rows[c.n], c.bld[c.n] = m.row(j), -1
				c.n, out = c.n+1, out+1
			}
		}
		r.stages[i].Took += time.Since(start)
		r.stages[i+1].Rows += out
		return true
	}
	if r.whole && len(p.lp) == 0 {
		n := 0
		for _, id := range ids {
			if id >= 0 {
				n += int(p.count[id])
			} else {
				n += b2i(k.KeepLeft)
			}
		}
		n = max(n, 1)
		p.lp, p.rp = make([]int32, n), make([]int32, n)
		p.out.size, p.out.keep.words = n, make([]uint64, (n+63)/64)
	}
	n := 0
	full := func() bool { return p.limit > 0 && r.steps[p.limit].left <= 0 }
	flush := func() bool {
		r.stages[i].Took += time.Since(start)
		ok := p.flush(r, i, m, n)
		start, n = time.Now(), 0
		return ok
	}
	for j, id := range ids {
		if full() {
			break
		}
		if id < 0 {
			if k.KeepLeft {
				p.lp[n], p.rp[n], n = int32(j), p.pad, n+1
				if n == len(p.lp) && !flush() {
					return false
				}
			}
			continue
		}
		for b := p.head[id]; b >= 0 && !full(); b = p.next[b] {
			p.lp[n], p.rp[n], n = int32(j), b, n+1
			if n == len(p.lp) && !flush() {
				return false
			}
		}
	}
	if (n > 0 || !p.emitted) && !flush() {
		return false
	}
	r.stages[i].Took += time.Since(start)
	return true
}

// flush pushes the n joined rows in lp and rp, of view m, through the
// steps after probe step i.
func (p *probe) flush(r *fanRun, i int, m *morsel, n int) bool {
	o := p.out
	p.emitted = true
	o.view.length, o.width, o.up = n, len(p.j.Cols), m
	o.rows, o.bld, o.done = p.lp[:n], p.rp[:n], o.done[:0]
	for c, jc := range p.j.Cols {
		if !o.reads(c) {
			continue
		}
		v := &o.cols[c].v
		if jc.Right {
			*v = *o.cols[c].base
			v.length, v.sel = n, o.bld
			continue
		}
		*v = m.cols[jc.Col].v
		v.length = n
		switch {
		case v.kind == value.Null:
		case v.sel == nil:
			v.sel = o.rows
		default:
			v.sel = o.compose(c, v.sel, o.rows)
		}
	}
	return r.push(i+1, o)
}

// compose returns sel at idx in column c's buffer, or in the buffer of a
// column that composed sel already.
func (m *morsel) compose(c int, sel, idx []int32) []int32 {
	for _, d := range m.done {
		if same(d[0], sel) {
			return d[1]
		}
	}
	if m.cols[c].sel == nil {
		m.cols[c].sel = make([]int32, max(m.size, len(idx)))
	}
	dst := m.cols[c].sel[:len(idx)]
	for o, k := range idx {
		dst[o] = sel[k]
	}
	m.done = append(m.done, [2][]int32{sel, dst})
	return dst
}

// tail emits, after every probe row, the build rows no probe row joined.
func (p *probe) tail(r *fanRun) {
	c := r.collect
	for b, id := range p.rids {
		switch {
		case p.probed[id]:
		case r.count:
			c.total++
		default:
			c.rows[c.n], c.bld[c.n] = -1, int32(b)
			c.n++
			r.stages[1].Rows++
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// collect is the materialize sink: it counts the rows the chain keeps in
// the counting pass, and writes their positions and computed cells into
// vectors of exactly that length in the next.
type collect struct {
	total, n  int
	rows, bld []int32
	comp      []*Vec
}

// size allocates the positions for total rows, after the counting pass.
func (c *collect) size(r *fanRun) {
	if r.p == nil {
		c.rows = make([]int32, c.total)
		return
	}
	ints := make([]int32, 2*c.total)
	c.rows, c.bld = ints[:c.total:c.total], ints[c.total:]
}

func (c *collect) push(r *fanRun, m *morsel) bool {
	if !r.counted {
		c.total = r.in.length
	}
	n := m.view.length
	for k := range n * b2i(c.rows != nil) {
		c.rows[c.n+k] = m.row(k)
	}
	if c.bld != nil {
		for k, b := range m.bld[:n] {
			c.bld[c.n+k] = b
			if b == r.p.pad {
				c.bld[c.n+k] = -1
			}
		}
	}
	if c.comp == nil {
		c.comp = make([]*Vec, len(m.cols))
	}
	for col := range m.cols {
		if m.cols[col].origin != computed {
			continue
		}
		src := &m.cols[col].v
		if c.comp[col] == nil {
			c.comp[col] = vecLike(src, c.total)
		}
		c.comp[col].putRange(c.n, src, n)
	}
	c.n += n
	return true
}

func (c *collect) finish(r *fanRun) (*Batch, error) {
	m, in := r.last, r.in
	same := !r.counted || c.total == in.length && r.p == nil
	if same && !slices.ContainsFunc(m.cols, func(c fanCol) bool { return c.origin == computed }) && len(m.cols) == len(in.cols) {
		return in, nil
	}
	var cc composer
	cols := make([]*Vec, len(m.cols))
	for col := range m.cols {
		switch o := m.cols[col].origin; {
		case o == computed && c.comp != nil && c.comp[col] != nil:
			cols[col] = c.comp[col]
		case o == computed:
			cols[col] = &Vec{kind: value.Null}
		case o >= 0 && same:
			cols[col] = in.cols[o]
		case o >= 0:
			cols[col] = in.cols[o].pick(c.rows, &cc)
		default:
			cols[col] = r.build.cols[-o-2].pick(c.bld, &cc)
		}
	}
	return &Batch{schema: r.schema, cols: cols, length: c.total}, nil
}

// vecLike returns a dense vector of n elements to copy src's cells into:
// of its kind, and dictionary when coded.
func vecLike(src *Vec, n int) *Vec {
	if src.dict != nil {
		return &Vec{kind: src.kind, dict: src.dict, codes: make([]uint32, n), length: n}
	}
	return newVec(src.kind, n)
}

// foldSink is a *GroupBy sink.
type foldSink struct{ fold fold }

func (s *foldSink) push(_ *fanRun, m *morsel) bool {
	s.fold.push(&m.view)
	return true
}

func (s *foldSink) finish(*fanRun) (*Batch, error) { return s.fold.finish() }

// heap is a *TopN sink, or a *Sort one. It copies each row it keeps
// into slots, every cell of the view's columns and the row's arrival
// number, which counts across morsels and pushes and orders ties as the
// stable sort does: the best limit rows so far in slots 0..limit-1, worst
// at the root, and a new row's key cells read into slot limit to compare
// it. A heap that keeps every row (all: a sort, a limit past the rows, a
// run that must not decline) copies each row it is pushed and sorts them
// at the end: the stable sort, whose prefix heap selection leaves as it
// is. Only a heap that selects declines: a NaN or boxed key cell, which
// it cannot order as the stable sort does.
type heap struct {
	keys    []table.SortKey
	keyCols []int
	keyBuf  [2]int
	limit   int
	all     bool
	start   int // the slots the vectors start with
	out     Batch
	vecs    []Vec
	seq, h  []int32
	n       int32 // the rows pushed so far
	cmps    []heapKey
	cmpBuf  [2]heapKey
}

// heapKey compares two slots by one sort key, its slot vector's cells.
type heapKey struct {
	v    *Vec
	desc bool
}

// newHeap sets a top-n sink up over view m of schema sch.
func (r *fanRun) newHeap(keys []table.SortKey, limit int, m *morsel, sch *schema.Schema) (*heap, error) {
	h := &r.heapBuf // the first top-n sink's
	if h.out.schema != nil {
		h = new(heap)
	}
	bound := math.MaxInt // a stream's rows are not known
	if !r.streamed {
		bound = r.in.length
		if r.p != nil && r.build.length > 0 {
			bound = max(bound, r.in.length*r.build.length)
		}
	}
	if err := h.bind(keys, limit, sch, min(limit, r.in.length)+1); err != nil {
		return nil, err
	}
	h.all = r.whole || h.limit >= bound
	for c := range sch.Len() {
		m.cols[c].live = true
	}
	return h, nil
}

// bind lays h out over rows of schema sch, its vectors start slots long.
func (h *heap) bind(keys []table.SortKey, limit int, sch *schema.Schema, start int) error {
	h.keys, h.limit, h.start, h.out.schema = keys, max(limit, 0), start, sch
	h.keyCols = h.keyBuf[:0]
	for _, k := range keys {
		c := sch.Index(k.Column)
		if c < 0 {
			return fmt.Errorf("colstore: sort column %q not found", k.Column)
		}
		h.keyCols = append(h.keyCols, c)
	}
	return nil
}

// init sets the slot vectors up for the columns of view m, the first
// pushed: false when a key is boxed and the heap selects.
func (h *heap) init(m *morsel) bool {
	n := h.out.schema.Len()
	h.vecs, h.out.cols = make([]Vec, n), make([]*Vec, n)
	for c := range h.vecs {
		src := m.view.cols[c]
		if !h.all && src.kind == anyKind && slices.Contains(h.keyCols, c) {
			return false
		}
		h.vecs[c] = part(vecLike(src, h.start), 0, 0)
		h.out.cols[c] = &h.vecs[c]
	}
	ints := make([]int32, 2*h.start)
	h.seq, h.h, h.cmps = ints[:0:h.start], ints[h.start:h.start], h.cmpBuf[:0]
	for i, c := range h.keyCols {
		h.cmps = append(h.cmps, heapKey{&h.vecs[c], h.keys[i].Desc})
	}
	return true
}

// before orders slots: the stable sort's order, ties by arrival.
func (h *heap) before(a, b int32) bool {
	for _, k := range h.cmps {
		if c := compareCells(k.v, int(a), int(b)); c != 0 {
			return (c < 0) != k.desc
		}
	}
	return h.seq[a] < h.seq[b]
}

func (h *heap) worse(a, b int32) bool { return h.before(b, a) }

func (h *heap) push(_ *fanRun, m *morsel) bool {
	if h.vecs == nil && !h.init(m) {
		return false
	}
	cols := m.view.cols[:len(h.vecs)]
	for c := range h.vecs {
		h.vecs[c].follow(cols[c])
	}
	for k := range m.view.length {
		h.n++
		if h.all || len(h.h) < h.limit {
			slot := int32(len(h.h))
			h.copy(cols, k, -1)
			if !h.all && h.nan(slot) {
				return false
			}
			if h.h = append(h.h, slot); len(h.h) == h.limit && !h.all {
				h.copy(cols, k, -1) // slot limit, where a new row is compared
				for i := len(h.h)/2 - 1; i >= 0; i-- {
					siftDown(h.h, i, h.worse)
				}
			}
			continue
		}
		if h.limit == 0 {
			continue
		}
		at := int32(h.limit)
		for _, c := range h.keyCols {
			h.vecs[c].put(int(at), cols[c], k)
		}
		if h.seq[at] = h.n; h.nan(at) {
			return false
		}
		if root := h.h[0]; h.before(at, root) {
			h.copy(cols, k, root)
			siftDown(h.h, 0, h.worse)
		}
	}
	return true
}

// copy copies row k of columns cols into slot, or into a new one for -1.
func (h *heap) copy(cols []*Vec, k int, slot int32) {
	if slot < 0 {
		h.seq = append(h.seq, h.n)
		for c := range h.vecs {
			h.vecs[c].appendFrom(cols[c], k)
		}
		return
	}
	h.seq[slot] = h.n
	for c := range h.vecs {
		h.vecs[c].put(int(slot), cols[c], k)
	}
}

// nan reports whether a float key cell of slot is NaN.
func (h *heap) nan(slot int32) bool {
	for _, c := range h.keyCols {
		if v := &h.vecs[c]; v.kind == value.Float && !v.null(int(slot)) && math.IsNaN(v.floats[slot]) {
			return true
		}
	}
	return false
}

// finish returns the kept rows in order: the slot vectors, selected
// through the ordered slots.
func (h *heap) finish(*fanRun) (*Batch, error) {
	if h.vecs == nil { // nothing was pushed
		h.out.cols = make([]*Vec, h.out.schema.Len())
		for c := range h.out.cols {
			h.out.cols[c] = &Vec{kind: value.Null}
		}
		return &h.out, nil
	}
	if h.all {
		h.out.length = len(h.h)
		return topN(&h.out, h.keys, h.limit)
	}
	h.order()
	for c := range h.vecs {
		h.vecs[c].sel, h.vecs[c].length = h.h, len(h.h)
	}
	h.out.length = len(h.h)
	return &h.out, nil
}

// order sorts the kept slots into output order.
func (h *heap) order() {
	slices.SortFunc(h.h, func(x, y int32) int {
		if h.before(x, y) {
			return -1
		}
		return 1
	})
}

// siftDown restores the heap property at root i under the given
// ordering (the "largest" element, per worse, bubbles to the top).
func siftDown(h []int32, i int, worse func(a, b int32) bool) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && worse(h[r], h[l]) {
			m = r
		}
		if !worse(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
