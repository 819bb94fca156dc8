// Package knapsack implements the combinatorial kernels Lyra's scheduling
// reduces to: the 0-1 knapsack (server reclaiming without value coupling),
// the multiple-choice knapsack (phase-2 elastic allocation, §5.2), and
// brute-force reference solvers used to verify the DP implementations and
// to compute the exhaustive-optimal reclaiming baseline (§7.3).
package knapsack

import (
	"fmt"
	"math"
	"sync"
)

// Item is one knapsack item. Weight must be non-negative; Value may be any
// finite float.
type Item struct {
	Weight int
	Value  float64
}

// eps absorbs float rounding when comparing candidate values.
const eps = 1e-9

// ZeroOne solves the 0-1 knapsack problem by dynamic programming: choose a
// subset of items with total weight <= capacity maximizing total value.
// It returns the best value and the chosen item indices in ascending order.
// Complexity O(n*capacity) time, O(n*capacity) space.
func ZeroOne(items []Item, capacity int) (float64, []int) {
	if capacity < 0 {
		return 0, nil
	}
	n := len(items)
	// dp[i][w] = best value using items[0:i] with weight budget w.
	dp := make([][]float64, n+1)
	for i := range dp {
		dp[i] = make([]float64, capacity+1)
	}
	for i := 1; i <= n; i++ {
		it := items[i-1]
		for w := 0; w <= capacity; w++ {
			dp[i][w] = dp[i-1][w]
			if it.Weight <= w {
				if v := dp[i-1][w-it.Weight] + it.Value; v > dp[i][w]+eps {
					dp[i][w] = v
				}
			}
		}
	}
	// Recover the selection.
	var chosen []int
	w := capacity
	for i := n; i >= 1; i-- {
		if dp[i][w] > dp[i-1][w]+eps {
			chosen = append(chosen, i-1)
			w -= items[i-1].Weight
		}
	}
	reverse(chosen)
	return dp[n][capacity], chosen
}

// ZeroOneBrute solves the 0-1 knapsack by exhaustive enumeration. It is
// exponential and exists to cross-check ZeroOne in tests. Panics are avoided
// by capping n at 24 items; larger inputs return (NaN, nil).
func ZeroOneBrute(items []Item, capacity int) (float64, []int) {
	n := len(items)
	if n > 24 {
		return math.NaN(), nil
	}
	best, bestMask := 0.0, 0
	for mask := 0; mask < 1<<n; mask++ {
		w, v := 0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += items[i].Weight
				v += items[i].Value
			}
		}
		if w <= capacity && v > best+eps {
			best, bestMask = v, mask
		}
	}
	var chosen []int
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			chosen = append(chosen, i)
		}
	}
	return best, chosen
}

// MaxGroupItems is the most items one MultiChoice group may hold: picks
// are stored as int16 item indices, with -1 meaning "nothing from this
// group".
const MaxGroupItems = math.MaxInt16

// MultiChoice solves the multiple-choice knapsack problem (§5.2): from each
// group take at most one item, total weight <= capacity, maximize total
// value. It returns the best value and, per group, the index of the chosen
// item within the group or -1 if the group contributes nothing. Items with
// a negative weight or a weight above capacity are never chosen. A group
// may hold at most MaxGroupItems items; MultiChoice panics on a larger one.
//
// This is exactly the formulation Lyra uses for phase-2 allocation: each
// elastic job is a group; the item for "+k workers" has weight k*GPUs and
// value equal to the job's JCT reduction. The paper reports at most 0.02 s
// for 354 items and 245 GPUs.
//
// The DP computes only the cells that can reach the answer. Let m_g be
// group g's largest usable weight, W_g = m_0+...+m_g and S_g = m_{g+1}+...
// After group g, every budget above W_g has the value and pick of budget
// W_g (no item set of groups 0..g weighs more), so rows stop at
// min(capacity, W_g) and reads above it hit a constant tail; capacity itself
// is clamped to the sum of all m_g. And the groups after g weigh at most
// S_g, so the recovery walk never looks at a budget of group g below
// capacity-S_g. Each cell sees the items in index order with the same
// comparison as the full (groups x capacity) table, so values, ties and
// picks are bit-identical to it. Cost O(sum over g of items_g x band_g),
// band_g = min(capacity, W_g) - max(0, capacity-S_g) + 1. Scratch rows and
// the pick arena come from a pool: steady state allocates only the
// returned choice slice.
func MultiChoice(groups [][]Item, capacity int) (float64, []int) {
	choice := make([]int, len(groups))
	for i := range choice {
		choice[i] = -1
	}
	if capacity < 0 {
		return 0, choice
	}
	s := mckpPool.Get().(*mckpScratch)
	defer mckpPool.Put(s)
	n := len(groups)

	// Largest usable weight per group; capacity beyond their sum is slack.
	s.top = grow(s.top, n)
	total := 0
	for g, items := range groups {
		if len(items) > MaxGroupItems {
			panic(fmt.Sprintf("knapsack: group %d has %d items, more than MaxGroupItems (%d)", g, len(items), MaxGroupItems))
		}
		m := 0
		for _, it := range items {
			if it.Weight <= capacity && it.Weight > m {
				m = it.Weight
			}
		}
		s.top[g] = m
		total += m
	}
	capacity = min(capacity, total)

	// Band [lo, hi] of each group's row and its offset in the pick arena.
	s.lo, s.hi, s.off = grow(s.lo, n), grow(s.hi, n), grow(s.off, n)
	size, prefix := 0, 0
	for g := range groups {
		prefix += s.top[g]
		s.lo[g] = max(0, capacity-(total-prefix))
		s.hi[g] = min(capacity, prefix)
		s.off[g] = size
		size += s.hi[g] - s.lo[g] + 1
	}
	s.pick = grow(s.pick, size)
	s.dp, s.next = grow(s.dp, capacity+1), grow(s.next, capacity+1)

	// dp[w] is the best value of the groups so far at budget w, valid on
	// the previous group's band; next is the row being built.
	dp, next, pick := s.dp, s.next, s.pick
	dp[0] = 0
	prevHi := 0
	for g, items := range groups {
		lo, hi := s.lo[g], s.hi[g]
		for w := prevHi + 1; w <= hi; w++ {
			dp[w] = dp[prevHi]
		}
		row := pick[s.off[g] : s.off[g]+hi-lo+1]
		for i := range row {
			row[i] = -1
		}
		copy(next[lo:hi+1], dp[lo:hi+1])
		for idx, it := range items {
			if it.Weight < 0 || it.Weight > hi {
				continue
			}
			from := max(lo, it.Weight)
			src := dp[from-it.Weight : hi+1-it.Weight]
			dst := next[from : hi+1]
			// Equal lengths let the compiler drop the loop's bounds checks.
			at := row[from-lo:]
			at = at[:len(dst)]
			dst = dst[:len(src)]
			for i, d := range src {
				if v := d + it.Value; v > dst[i]+eps {
					dst[i] = v
					at[i] = int16(idx)
				}
			}
		}
		dp, next = next, dp
		prevHi = hi
	}

	// Recover choices; budgets above a row's end share its last pick.
	w := capacity
	for g := n - 1; g >= 0; g-- {
		idx := pick[s.off[g]+min(w, s.hi[g])-s.lo[g]]
		choice[g] = int(idx)
		if idx >= 0 {
			w -= groups[g][idx].Weight
		}
	}
	return dp[capacity], choice
}

// mckpScratch holds MultiChoice's working memory between calls: per-group
// largest weights and bands, the two DP rows and the flat pick arena.
type mckpScratch struct {
	top, lo, hi, off []int
	dp, next         []float64
	pick             []int16
}

var mckpPool = sync.Pool{New: func() any { return new(mckpScratch) }}

// grow returns s resized to n, reallocating only when it lacks capacity.
// The contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MultiChoiceBrute solves MCKP by exhaustive enumeration for verification.
// The product of (len(group)+1) over groups must stay below ~2^22; larger
// inputs return (NaN, nil).
func MultiChoiceBrute(groups [][]Item, capacity int) (float64, []int) {
	total := 1
	for _, g := range groups {
		total *= len(g) + 1
		if total > 1<<22 {
			return math.NaN(), nil
		}
	}
	best := 0.0
	bestChoice := make([]int, len(groups))
	for i := range bestChoice {
		bestChoice[i] = -1
	}
	choice := make([]int, len(groups))
	for i := range choice {
		choice[i] = -1
	}
	var rec func(g int, w int, v float64)
	rec = func(g, w int, v float64) {
		if w > capacity {
			return
		}
		if g == len(groups) {
			if v > best+eps {
				best = v
				copy(bestChoice, choice)
			}
			return
		}
		choice[g] = -1
		rec(g+1, w, v)
		for idx, it := range groups[g] {
			choice[g] = idx
			rec(g+1, w+it.Weight, v+it.Value)
		}
		choice[g] = -1
	}
	rec(0, 0, 0)
	return best, bestChoice
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
