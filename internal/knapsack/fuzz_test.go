package knapsack

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzZeroOneAgainstBrute cross-checks the DP against exhaustive search on
// fuzzer-chosen instances.
func FuzzZeroOneAgainstBrute(f *testing.F) {
	f.Add(uint16(0x1234), uint8(5), uint8(10))
	f.Add(uint16(0xffff), uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, bits uint16, n, capacity uint8) {
		items := make([]Item, int(n)%10+1)
		for i := range items {
			items[i] = Item{
				Weight: int(bits>>(uint(i)%12)) % 8,
				Value:  float64((int(bits) * (i + 3)) % 40),
			}
		}
		capGPUs := int(capacity) % 24
		dp, sel := ZeroOne(items, capGPUs)
		brute, _ := ZeroOneBrute(items, capGPUs)
		if math.Abs(dp-brute) > 1e-9 {
			t.Fatalf("dp=%v brute=%v items=%v cap=%d", dp, brute, items, capGPUs)
		}
		w, v := 0, 0.0
		for _, idx := range sel {
			w += items[idx].Weight
			v += items[idx].Value
		}
		if w > capGPUs || math.Abs(v-dp) > 1e-9 {
			t.Fatalf("selection inconsistent: w=%d v=%v dp=%v", w, v, dp)
		}
	})
}

// FuzzMultiChoiceAgainstBrute cross-checks the MCKP DP.
func FuzzMultiChoiceAgainstBrute(f *testing.F) {
	f.Add(uint32(0xdeadbeef), uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, bits uint32, ng, capacity uint8) {
		groups := make([][]Item, int(ng)%4+1)
		for g := range groups {
			items := make([]Item, int(bits>>(uint(g)*3))%3+1)
			for i := range items {
				items[i] = Item{
					Weight: int(bits>>(uint(g+i)%20)) % 6,
					Value:  float64((int(bits) * (g + i + 2)) % 30),
				}
			}
			groups[g] = items
		}
		capGPUs := int(capacity) % 14
		dp, choice := MultiChoice(groups, capGPUs)
		brute, _ := MultiChoiceBrute(groups, capGPUs)
		if math.Abs(dp-brute) > 1e-9 {
			t.Fatalf("dp=%v brute=%v groups=%v cap=%d", dp, brute, groups, capGPUs)
		}
		w, v := 0, 0.0
		for g, idx := range choice {
			if idx < 0 {
				continue
			}
			w += groups[g][idx].Weight
			v += groups[g][idx].Value
		}
		if w > capGPUs || math.Abs(v-dp) > 1e-9 {
			t.Fatalf("choice inconsistent: w=%d v=%v dp=%v", w, v, dp)
		}
	})
}

// multiChoiceFull is the full (groups x capacity) table DP that MultiChoice
// replaced: every budget of every group, one fresh pick row per group. It is
// the reference the banded kernel must match bit for bit.
func multiChoiceFull(groups [][]Item, capacity int) (float64, []int) {
	choice := make([]int, len(groups))
	for i := range choice {
		choice[i] = -1
	}
	if capacity < 0 {
		return 0, choice
	}
	dp := make([]float64, capacity+1)
	next := make([]float64, capacity+1)
	pick := make([][]int16, len(groups))
	for g, items := range groups {
		pick[g] = make([]int16, capacity+1)
		for w := 0; w <= capacity; w++ {
			next[w] = dp[w]
			pick[g][w] = -1
			for idx, it := range items {
				if it.Weight < 0 || it.Weight > w {
					continue
				}
				if v := dp[w-it.Weight] + it.Value; v > next[w]+eps {
					next[w] = v
					pick[g][w] = int16(idx)
				}
			}
		}
		dp, next = next, dp
	}
	w := capacity
	for g := len(groups) - 1; g >= 0; g-- {
		idx := pick[g][w]
		choice[g] = int(idx)
		if idx >= 0 {
			w -= groups[g][idx].Weight
		}
	}
	return dp[capacity], choice
}

// decodeGroups turns fuzz bytes into an MCKP instance: up to 40 groups of
// 0..10 items, weights in [-8, 55] (negative, zero and over-capacity ones
// included) and values in [-2, 2) on a 1/8 grid plus 0..3 steps of
// 0.4e-9, so exact ties and near-ties on both sides of eps all occur.
func decodeGroups(data []byte) [][]Item {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	groups := make([][]Item, int(next())%41)
	for g := range groups {
		items := make([]Item, int(next())%11)
		for i := range items {
			items[i] = Item{
				Weight: int(next())%64 - 8,
				Value:  float64(int(next())%32-16)/8 + float64(next()%4)*0.4e-9,
			}
		}
		groups[g] = items
	}
	return groups
}

// FuzzMultiChoiceVsFullTable pins the banded MultiChoice kernel to the full
// table DP: the same value (==, not within eps) and the same choice per
// group, including negative capacity and capacity far above every group's
// largest weight combined.
func FuzzMultiChoiceVsFullTable(f *testing.F) {
	f.Add([]byte{}, int16(10))
	f.Add([]byte{2, 1, 3, 0, 0, 0}, int16(-1))
	f.Add([]byte{3, 0, 2, 8, 17, 9, 16, 0, 1, 70, 20}, int16(5))
	f.Add([]byte{1, 3, 5, 20, 0, 2, 20, 1, 63, 20, 2}, int16(1000))
	f.Add([]byte{1, 1, 13, 20, 0}, int16(5)) // one item weighing exactly the capacity
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 24; i++ {
		data := make([]byte, 1+rng.Intn(500))
		rng.Read(data)
		data[0] = byte(rng.Intn(41))
		f.Add(data, int16(rng.Intn(700)-50))
	}
	f.Fuzz(func(t *testing.T, data []byte, capacity int16) {
		groups := decodeGroups(data)
		capGPUs := int(capacity) % 2048
		got, gotChoice := MultiChoice(groups, capGPUs)
		want, wantChoice := multiChoiceFull(groups, capGPUs)
		if got != want || !slices.Equal(gotChoice, wantChoice) {
			t.Fatalf("banded (%v, %v) != full table (%v, %v)\ngroups=%v cap=%d",
				got, gotChoice, want, wantChoice, groups, capGPUs)
		}
	})
}
