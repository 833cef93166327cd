package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: values below
// histSub are counted exactly, larger ones in histSub linear sub-buckets
// per power of two (bucket width < 0.8% of the value). Memory is fixed, so
// a faster system — more samples per window — does not inflate
// peak_rss_mb the way a sample slice would.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 128
	histSubBits = 7
	histOctaves = 36 // up to 2^(7+35) ns, far beyond any run
	histBuckets = histSub * histOctaves
)

func (h *hist) add(ns int64) {
	v := uint64(max(ns, 0))
	idx := v
	if v >= histSub {
		shift := uint(bits.Len64(v)) - histSubBits - 1
		idx = uint64(shift+1)*histSub + (v>>shift - histSub)
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.counts[idx]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated by rank
// inside the bucket that holds it; 0 with no samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := float64(i), 1.0
			if i >= histSub {
				shift := uint(i/histSub - 1)
				lo = float64(uint64(histSub+i%histSub) << shift)
				width = float64(uint64(1) << shift)
			}
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}
