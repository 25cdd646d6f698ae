package colstore

// Bitmap is a vector's null mask: a fixed-length bitset over payload
// slots, a set bit marking a null cell. Selections are []int32 row
// indices, never bitmaps.
type Bitmap struct{ words []uint64 }

// NewBitmap returns an all-zero bitmap over n positions.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64)}
}

// grow extends the bitmap to n positions; the new ones are clear.
func (b *Bitmap) grow(n int) {
	for len(b.words) < (n+63)/64 {
		b.words = append(b.words, 0)
	}
}

// Set sets bit i.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Empty reports whether no bit is set.
func (b *Bitmap) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}
