package wse

import (
	"math/rand"
	"sort"
	"testing"
)

// TestMergeLogsMatchesStableSort is the k-way merge's oracle: random logs,
// each sorted by key and drawn from a small key space (so keys repeat
// inside one log and across logs), must merge into exactly the order a
// stable sort of their concatenation gives — the algorithm the merge
// replaced.
func TestMergeLogsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		logs := make([][]taggedEmission, rng.Intn(9))
		var concat []taggedEmission
		id := 0
		for i := range logs {
			for n := rng.Intn(24); n > 0; n-- {
				key := evKey{at: int64(rng.Intn(5)), src: int32(rng.Intn(4)) - 1, seq: int64(rng.Intn(3))}
				logs[i] = append(logs[i], taggedEmission{key: key, em: Emission{At: int64(id)}})
				id++
			}
			sort.SliceStable(logs[i], func(a, b int) bool { return logs[i][a].key.less(logs[i][b].key) })
			concat = append(concat, logs[i]...)
		}
		sort.SliceStable(concat, func(a, b int) bool { return concat[a].key.less(concat[b].key) })

		var got []taggedEmission
		mergeLogs(logs, func(te *taggedEmission) { got = append(got, *te) })
		if len(got) != len(concat) {
			t.Fatalf("trial %d: merged %d records, want %d", trial, len(got), len(concat))
		}
		for i := range got {
			if got[i] != concat[i] {
				t.Fatalf("trial %d: record %d = %+v, stable sort gives %+v", trial, i, got[i], concat[i])
			}
		}
	}
}
