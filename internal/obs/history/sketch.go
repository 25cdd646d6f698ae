package history

import "math"

// sketchBuckets sizes the latency sketch: four buckets per octave
// starting at 1µs, so bucket i covers [2^(i/4), 2^((i+1)/4)) µs with a
// ~19% relative width. 100 buckets reach 2^25 µs ≈ 34s; anything
// slower lands in the last bucket. At 8 bytes per bucket a profile's
// sketch costs 800 bytes — cheap enough to keep one per stage.
const sketchBuckets = 100

// Sketch is a fixed-size streaming latency sketch: a log-spaced
// histogram over microsecond durations that answers quantile queries
// with bounded relative error. It is mergeable (bucket-wise addition)
// and serializes as plain JSON, so it can ride inside snapshots.
type Sketch struct {
	// Counts holds per-bucket observation counts.
	Counts [sketchBuckets]int64 `json:"counts"`
	// N is the total number of observations.
	N int64 `json:"n"`
}

// Observe records one duration in microseconds.
func (s *Sketch) Observe(us int64) {
	s.Counts[bucketOf(us)]++
	s.N++
}

// bucketOf maps a microsecond duration to its bucket index.
func bucketOf(us int64) int {
	if us < 1 {
		return 0
	}
	i := int(4 * math.Log2(float64(us)))
	if i < 0 {
		return 0
	}
	if i >= sketchBuckets {
		return sketchBuckets - 1
	}
	return i
}

// Quantile estimates the q-quantile (0..1) in microseconds: the
// geometric midpoint of the bucket holding the q-th ranked
// observation. Zero when the sketch is empty.
func (s *Sketch) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.N)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			return math.Exp2((float64(i) + 0.5) / 4)
		}
	}
	return math.Exp2(float64(sketchBuckets) / 4)
}
