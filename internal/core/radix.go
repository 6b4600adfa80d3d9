package core

// Linear-time integer sorting for the observe index and the store
// counts: a stable LSD radix sort over 8- or 16-bit digits, run in
// parallel over contiguous chunks of the input.

import "math/bits"

const (
	// minParallelRadix is the key count below which a radix sort stays
	// on the calling goroutine.
	minParallelRadix = 1 << 15

	// radixWideMin is the key count from which digits are 16 bits wide
	// instead of 8: wide digits halve the passes over big inputs, whose
	// cost is the scatter, while narrow ones keep the per-pass bucket
	// work small for short inputs. The two cost about the same near
	// 2^20 keys on a 2-CPU Xeon.
	radixWideMin = 1 << 20
)

// radixKey is the key width the radix sort handles.
type radixKey interface{ ~uint32 | ~uint64 }

// radixSort sorts keys by their bits from lo (0 or 32) upward and
// returns the sorted slice, which is either keys or tmp (len(tmp) >=
// len(keys)); the other one is clobbered. The sort is stable, so bits
// below lo ride along unsorted: keys equal in the sorted bits keep
// their input order. Digits on which every key agrees cost no pass.
// Each pass runs on up to workers goroutines, every one scattering a
// contiguous chunk to offsets fixed by the per-chunk digit counts, so
// the result does not depend on the worker count.
func radixSort[K radixKey](keys, tmp []K, lo uint, workers int) []K {
	n := len(keys)
	width := uint(bits.Len64(uint64(^K(0))))
	if n < 2 || lo >= width {
		return keys
	}
	db := uint(8)
	if n >= radixWideMin {
		db = 16
	}
	digits := int(width-lo) / int(db)
	buckets := 1 << db
	mask := K(buckets - 1)
	p := min(workers, n)
	if n < minParallelRadix {
		p = 1
	}
	bounds := make([]int, p+1)
	for w := range bounds {
		bounds[w] = w * n / p
	}

	// One read counts every digit of every chunk: the totals decide
	// which digits need a pass, and the chunk counts serve the first.
	counts := make([][][]int, p)
	ParallelFor(p, p, func(w int) {
		c := make([][]int, digits)
		for d := range c {
			c[d] = make([]int, buckets)
		}
		for _, k := range keys[bounds[w]:bounds[w+1]] {
			k >>= lo
			for d := range c {
				c[d][k&mask]++
				k >>= db
			}
		}
		counts[w] = c
	})

	src, dst := keys, tmp[:n]
	offs := make([][]int, p)
	for w := range offs {
		offs[w] = make([]int, buckets)
	}
	total := make([]int, buckets)
	passes := 0
	for d := 0; d < digits; d++ {
		clear(total)
		for w := range counts {
			for b, c := range counts[w][d] {
				total[b] += c
			}
		}
		if trivialDigit(total, n) {
			continue
		}
		shift := lo + uint(d)*db
		if passes > 0 && p > 1 {
			// An earlier pass moved keys between chunks: recount this
			// digit per chunk of the current order.
			ParallelFor(p, p, func(w int) {
				c := counts[w][d]
				clear(c)
				for _, k := range src[bounds[w]:bounds[w+1]] {
					c[k>>shift&mask]++
				}
			})
		}
		base := 0
		for b := range total {
			for w := range offs {
				offs[w][b] = base
				base += counts[w][d][b]
			}
		}
		ParallelFor(p, p, func(w int) {
			o := offs[w]
			for _, k := range src[bounds[w]:bounds[w+1]] {
				b := k >> shift & mask
				dst[o[b]] = k
				o[b]++
			}
		})
		src, dst = dst, src
		passes++
	}
	return src
}

// trivialDigit reports whether one bucket holds every key, so a pass
// on that digit would leave the order unchanged.
func trivialDigit(total []int, n int) bool {
	for _, c := range total {
		if c != 0 {
			return c == n
		}
	}
	return true
}
