package colstore

import "math/bits"

// Bitmap is a fixed-length bitset over row positions. Vectors use it for
// null tracking (a set bit marks a null cell) and the filter kernel uses
// it as a selection bitmap (a set bit keeps the row).
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-zero bitmap over n positions.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// grow extends the bitmap to n positions; the new ones are clear.
func (b *Bitmap) grow(n int) {
	for len(b.words) < (n+63)/64 {
		b.words = append(b.words, 0)
	}
	b.n = n
}

// Len returns the number of positions.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bit is set.
func (b *Bitmap) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// And intersects o into b. Both bitmaps must have the same length.
func (b *Bitmap) And(o *Bitmap) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions o into b. Both bitmaps must have the same length.
func (b *Bitmap) Or(o *Bitmap) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// Indices returns the positions of the set bits, ascending — the
// selection vector corresponding to the bitmap.
func (b *Bitmap) Indices() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}
