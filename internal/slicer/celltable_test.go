package slicer

import (
	"math"
	"math/rand"
	"testing"
)

// The chaining cell table agrees with a Go map assigning ids in
// first-seen order, on keys built to stress it: negative and extreme
// coordinates, keys that collide in their low bits (so only the hash's
// mixing separates them), repeats, and enough distinct keys after a
// small reset that the table grows several times mid-stream. A pooled
// table is reset and reused between rounds, as sliceShell reuses it.
func TestCellTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var keys [][2]int64
	for i := int64(-40); i < 40; i++ {
		keys = append(keys, [2]int64{i, -i}, [2]int64{-i, i})
	}
	for i := int64(0); i < 300; i++ {
		// Equal low 20 bits in both coordinates.
		keys = append(keys, [2]int64{i << 20, 5 + i<<20}, [2]int64{-(i << 32), 5})
	}
	keys = append(keys,
		[2]int64{math.MinInt64, math.MaxInt64}, [2]int64{math.MaxInt64, math.MinInt64},
		[2]int64{0, 0}, [2]int64{-1, -1})
	for i := 0; i < 2000; i++ {
		keys = append(keys, [2]int64{rng.Int63n(64) - 32, rng.Int63n(64) - 32})
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	var tab cellTable
	for round, hint := range []int{0, len(keys), 3} {
		tab.reset(hint)
		want := map[[2]int64]int32{}
		for _, k := range keys {
			id, ok := want[k]
			if !ok {
				id = int32(len(want))
				want[k] = id
			}
			if got := tab.id(k); got != id {
				t.Fatalf("round %d: id(%v) = %d, map assigns %d", round, k, got, id)
			}
		}
		if len(tab.keys) != len(want) {
			t.Fatalf("round %d: %d ids assigned, map holds %d", round, len(tab.keys), len(want))
		}
		for k, id := range want {
			if got, ok := tab.lookup(k); !ok || got != id {
				t.Fatalf("round %d: lookup(%v) = %d, %v; want %d", round, k, got, ok, id)
			}
			miss := [2]int64{k[0], k[1] ^ 1<<40}
			if _, in := want[miss]; !in {
				if _, ok := tab.lookup(miss); ok {
					t.Fatalf("round %d: lookup(%v) found a key never inserted", round, miss)
				}
			}
		}
		if 2*len(tab.keys) > len(tab.slots) {
			t.Fatalf("round %d: %d ids in %d slots: more than half full", round, len(tab.keys), len(tab.slots))
		}
	}
}
