package colstore

import (
	"strconv"

	"shareinsights/internal/schema"
	"shareinsights/internal/value"
)

// keyIndex assigns dense ids (0, 1, 2… in first-seen order) to key
// tuples — the identity both hash kernels are built on: a group-by
// numbers one batch's rows, a join numbers its build side and then looks
// its probe side up in the same index.
//
// Key identity is docs/SEMANTICS.md §1.1's: a cell is its kind byte plus
// its display form, so null equals null, the int 1 never equals the
// float 1.0 or the string "1", -0 is not 0 and every NaN is one key. The
// general path hashes exactly that
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
	// byCode is the ids of dict's codes (-2: not looked up yet), built
	// once for a coded key column however many ranges it assigns.
	dict   []string
	byCode []int32
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

// assign writes into ids the ids of the keys of the rows from lo on, as
// many as fit, and returns the part it wrote; it reads selected key
// columns through their indices. With insert set an unseen key takes the
// next id; without it an unseen key reads -1, and so it does for the rest
// of the index's life: an index that has assigned without insert never
// inserts again.
func (x *keyIndex) assign(b *Batch, keys []int, lo int, ids []int32, insert bool) []int32 {
	ids, v := ids[:min(len(ids), b.length-lo)], b.cols[keys[0]]
	switch x.kind {
	case value.Int:
		for i := range ids {
			ids[i] = keyID(x.ints, v.ints[v.slot(lo+i)], insert)
		}
	case value.String:
		if v.dict == nil {
			for i := range ids {
				ids[i] = keyID(x.strs, v.strs[v.slot(lo+i)], insert)
			}
			return ids
		}
		const unresolved = -2
		if !same(x.dict, v.dict) {
			x.dict, x.byCode = v.dict, make([]int32, len(v.dict))
			for c := range x.byCode {
				x.byCode[c] = unresolved
			}
		}
		for i, byCode := range ids {
			c := v.codes[v.slot(lo+i)]
			if byCode = x.byCode[c]; byCode == unresolved {
				byCode = keyID(x.strs, v.dict[c], insert)
				x.byCode[c] = byCode
			}
			ids[i] = byCode
		}
	default:
		for i := range ids {
			x.buf = appendKey(x.buf[:0], b, keys, lo+i)
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
	return ids
}

// encode moves a typed index to the encoded keys, each id kept: the
// next batch a fold numbers has nulls in its key column, or another kind.
func (x *keyIndex) encode() {
	strs := make(map[string]int32, x.size())
	for k, id := range x.strs {
		strs[string(append([]byte{byte(value.String)}, k...))] = id
	}
	for k, id := range x.ints {
		strs[string(strconv.AppendInt([]byte{byte(value.Int)}, k, 10))] = id
	}
	x.kind, x.strs, x.ints, x.dict, x.byCode = value.Null, strs, nil, nil, nil
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
// It builds on the right input and probes with the left, and what it
// produces is two row-index vectors — for
// every output row its left and its right source row, -1 where an outer
// join has no partner — and each projected output column is a selection
// through one of them. No key string, no row and no cell is built, and
// no column is copied, and a column nothing reads is never gathered. In a
// Fan it is a *Probe step: steps after it run on the rows it joins, a
// morsel at a time, and only what they keep is ever sized. Output order is
// docs/SEMANTICS.md §2.4's: left rows in order, each one's partners in right-row
// order, then (right and full outer) the right rows nothing matched, in
// order. Key identity is keyIndex's.
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
