package colstore

import (
	"shareinsights/internal/schema"
	"shareinsights/internal/value"
)

// keyIndex assigns dense ids (0, 1, 2… in first-seen order) to key
// tuples — the identity both hash kernels are built on: a group-by
// numbers one batch's rows, a join numbers its build side and then looks
// its probe side up in the same index.
//
// Key identity is the row engine's: a cell is its kind byte plus its
// display form (the row grouper's and joinKey's encoding), so null equals
// null, the int 1 never equals the float 1.0 or the string "1", -0 is
// not 0 and every NaN is one key. The general path hashes exactly that
// encoding. A single null-free string or int key column on every side —
// the overwhelmingly common shape — hashes its payload directly, which
// yields the same partition because a kind-uniform column's payload
// determines its encoded key and vice versa; a dictionary-coded string
// column resolves each dictionary entry once and then reads ids off the
// codes.
type keyIndex struct {
	kind value.Kind       // String or Int: the typed path; else the encoded one
	strs map[string]int32 // string payloads, or encoded tuples
	ints map[int64]int32
	buf  []byte
}

// keyVecs returns the batch's key column vectors.
func keyVecs(b *Batch, keys []int) []*Vec {
	vs := make([]*Vec, len(keys))
	for i, c := range keys {
		vs[i] = b.cols[c]
	}
	return vs
}

// newKeyIndex picks the path for the given sides of a key (one slice of
// key vectors per batch that will be assigned): typed only when every
// side is the same single null-free string or int column kind.
func newKeyIndex(sides ...[]*Vec) *keyIndex {
	x := &keyIndex{}
	for i, vs := range sides {
		if len(vs) != 1 || vs[0].hasNulls() || (vs[0].kind != value.String && vs[0].kind != value.Int) ||
			(i > 0 && vs[0].kind != x.kind) {
			x.kind = value.Null
			break
		}
		x.kind = vs[0].kind
	}
	if x.kind == value.Int {
		x.ints = make(map[int64]int32, 64)
	} else {
		x.strs = make(map[string]int32, 64)
	}
	return x
}

// assign writes the id of every row's key into ids. With insert set an
// unseen key takes the next id; without it an unseen key reads -1.
func (x *keyIndex) assign(b *Batch, keys []int, ids []int32, insert bool) {
	switch x.kind {
	case value.Int:
		for i, k := range b.cols[keys[0]].ints {
			ids[i] = keyID(x.ints, k, insert)
		}
	case value.String:
		v := b.cols[keys[0]]
		if v.dict == nil {
			for i, s := range v.strs {
				ids[i] = keyID(x.strs, s, insert)
			}
			return
		}
		const unresolved = -2
		byCode := make([]int32, len(v.dict))
		for c := range byCode {
			byCode[c] = unresolved
		}
		for i, c := range v.codes {
			if byCode[c] == unresolved {
				byCode[c] = keyID(x.strs, v.dict[c], insert)
			}
			ids[i] = byCode[c]
		}
	default:
		for i := 0; i < b.length; i++ {
			x.buf = x.buf[:0]
			for ki, c := range keys {
				if ki > 0 {
					x.buf = append(x.buf, 0)
				}
				x.buf = appendGroupKey(x.buf, b.cols[c], i)
			}
			// Indexing with string(buf) in place does not allocate, which
			// passing it to keyID would; only an insert copies the key.
			id, ok := x.strs[string(x.buf)]
			if !ok {
				id = -1
				if insert {
					id = int32(len(x.strs))
					x.strs[string(x.buf)] = id
				}
			}
			ids[i] = id
		}
	}
}

// keyID returns k's id in m: the next dense id for an unseen key when
// insert is set, -1 for one when it is not.
func keyID[K comparable](m map[K]int32, k K, insert bool) int32 {
	id, ok := m[k]
	if !ok {
		if !insert {
			return -1
		}
		id = int32(len(m))
		m[k] = id
	}
	return id
}

// size is the number of ids assigned so far.
func (x *keyIndex) size() int { return len(x.strs) + len(x.ints) }

// JoinCol names one output column of a Join: column Col of the right
// input when Right is set, of the left input otherwise.
type JoinCol struct {
	Right bool
	Col   int
}

// Join is the vectorized hash equi-join, the one kernel with two inputs.
// It builds on the right input and probes with the left, exactly as the
// row join does, but what it produces first is two row-index vectors —
// for every output row its left and its right source row, -1 where an
// outer join has no partner — and each projected output column is then
// gathered through one of them. No key string, no row and no cell is
// built. Output order is the row join's: left rows in order, each one's
// partners in right-row order, then (right and full outer) the right
// rows nothing matched, in order. Key identity is keyIndex's.
type Join struct {
	// LeftKeys / RightKeys are the equi-join key columns, pairwise.
	LeftKeys, RightKeys []int
	// KeepLeft / KeepRight keep that side's unmatched rows (the outer
	// sides of the join condition).
	KeepLeft, KeepRight bool
	// Cols are the output columns in order, aligned with Out.
	Cols []JoinCol
	// Out is the output schema.
	Out *schema.Schema
}

// Run joins the two batches. It never returns ErrFallback: every key
// kind has the encoded path.
func (k *Join) Run(left, right *Batch) (*Batch, error) {
	x := newKeyIndex(keyVecs(left, k.LeftKeys), keyVecs(right, k.RightKeys))
	rids := make([]int32, right.length)
	x.assign(right, k.RightKeys, rids, true)
	lids := make([]int32, left.length)
	x.assign(left, k.LeftKeys, lids, false)

	// Chain the right rows of each key in row order: head[id] is the
	// first, next[row] the following one, -1 ends the chain. Linking in
	// reverse keeps every chain ascending.
	nk := x.size()
	head := make([]int32, nk)
	count := make([]int32, nk)
	for id := range head {
		head[id] = -1
	}
	next := make([]int32, right.length)
	for r := right.length - 1; r >= 0; r-- {
		id := rids[r]
		next[r] = head[id]
		head[id] = int32(r)
		count[id]++
	}

	// Size the output exactly, so the index vectors are two allocations
	// whatever the row count. probed marks the keys some left row hit.
	probed := make([]bool, nk)
	total := 0
	for _, id := range lids {
		switch {
		case id >= 0:
			probed[id] = true
			total += int(count[id])
		case k.KeepLeft:
			total++
		}
	}
	if k.KeepRight {
		for id, hit := range probed {
			if !hit {
				total += int(count[id])
			}
		}
	}
	lidx := make([]int32, 0, total)
	ridx := make([]int32, 0, total)
	for l, id := range lids {
		if id < 0 {
			if k.KeepLeft {
				lidx = append(lidx, int32(l))
				ridx = append(ridx, -1)
			}
			continue
		}
		for r := head[id]; r >= 0; r = next[r] {
			lidx = append(lidx, int32(l))
			ridx = append(ridx, r)
		}
	}
	if k.KeepRight {
		for r, id := range rids {
			if !probed[id] {
				lidx = append(lidx, -1)
				ridx = append(ridx, int32(r))
			}
		}
	}

	cols := make([]*Vec, len(k.Cols))
	for i, c := range k.Cols {
		if c.Right {
			cols[i] = gather(right.cols[c.Col], ridx)
		} else {
			cols[i] = gather(left.cols[c.Col], lidx)
		}
	}
	return &Batch{schema: k.Out, cols: cols, length: total}, nil
}
