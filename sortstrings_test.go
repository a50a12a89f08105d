package shufflenet

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// stringRowCases are rows whose abbreviated keys collide, so runs of
// tied keys are sorted again on later bytes, down to keys of lengths
// once only zero padding is left. Each row cycles through pool from a
// row-dependent offset and is shuffled, so a row at least as wide as
// the pool holds all of it (with duplicates past that). A nil pool
// draws random lowercase strings of 4..15 bytes instead.
var stringRowCases = []struct {
	name string
	pool []string
}{
	{"all equal", []string{"kiwifruit"}},
	{"shared 7-byte prefix", []string{
		"abcdefg", "abcdefgA", "abcdefgB", "abcdefg\x00", "abcdefgAB", "abcdefgBA",
		"abcdefg\xff", "abcdefgA\x00", "abcdefh", "abcdefgAAAAAAAAA",
	}},
	{"zero padding meets NUL bytes", []string{
		"", "\x00", "\x00\x00", "\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00",
		"\x01", "a", "a\x00", "a\x00\x00\x00\x00\x00\x00\x00", "\x00a",
		strings.Repeat("\x00", 14), strings.Repeat("\x00", 15), strings.Repeat("\x00", 21) + "a",
	}},
	{"shared URL prefix", []string{
		"https://example.com/", "https://example.com/a", "https://example.com/b",
		"https://example.com/\x00", "https://example.com/ab", "https://example.com/ba",
		"https://example.co", "https://example.com/a\x00", "https://example.com/aaaaaaab",
		"https://example.com/aaaaaaaa", "https://example.com/aaaaaaa", "https://example.org/",
	}},
	{"differ at byte 14", []string{
		"aaaaaaaaaaaaaaAz", "aaaaaaaaaaaaaaBa", "aaaaaaaaaaaaaaA", "aaaaaaaaaaaaaaB\x00",
		"aaaaaaaaaaaaaa", "aaaaaaaaaaaaaaAa", "aaaaaaaaaaaaaa\x00z", "aaaaaaaaaaaaaaz",
	}},
	{"lengths 6 7 8", []string{
		"aaaaaa", "aaaaab", "aaaaaaa", "aaaaaab", "aaaaaba",
		"aaaaaaaa", "aaaaaaab", "aaaaaaba", "aaaaabaa", "baaaaa",
	}},
	{"random", nil},
}

func randomLower(rng *rand.Rand) string {
	b := make([]byte, 4+rng.Intn(12))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// TestSortStringsMatchesSlicesSort runs the four []string entry
// points over every kernel width on rows built to collide on their
// key prefixes. SortBatch sorts []string rows with Sort; m = 3 keeps
// SortBatchFlat on it too, m = 17 and 41 take SortBatchFlat and
// SortBatchCols through the batch kernels, with SIMD tails, and m = 41
// splits into several key chunks from width 7 up.
func TestSortStringsMatchesSlicesSort(t *testing.T) {
	eachBatchImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, tc := range stringRowCases {
			for n := 2; n <= 16; n++ {
				for _, m := range []int{3, 17, 41} {
					rows := make([][]string, m)
					for r := range rows {
						rows[r] = make([]string, n)
						for w := range rows[r] {
							if tc.pool == nil {
								rows[r][w] = randomLower(rng)
							} else {
								rows[r][w] = tc.pool[(r+w)%len(tc.pool)]
							}
						}
						rng.Shuffle(n, func(i, j int) { rows[r][i], rows[r][j] = rows[r][j], rows[r][i] })
					}
					want := sortBatchWant(rows)
					name := fmt.Sprintf("%s n=%d m=%d", tc.name, n, m)

					sorted := make([][]string, m)
					batch := make([][]string, m)
					flat := make([]string, n*m)
					cols := make([]string, n*m)
					for r, row := range rows {
						sorted[r] = slices.Clone(row)
						Sort(sorted[r])
						batch[r] = slices.Clone(row)
						copy(flat[r*n:], row)
						for w, s := range row {
							cols[w*m+r] = s
						}
					}
					SortBatch(batch)
					SortBatchFlat(flat, n)
					SortBatchCols(cols, m)
					checkBatchEqual(t, name+" Sort", sorted, want)
					checkBatchEqual(t, name+" SortBatch", batch, want)
					for r := range want {
						for w := range want[r] {
							if flat[r*n+w] != want[r][w] {
								t.Fatalf("%s SortBatchFlat: row %d slot %d = %q, want %q", name, r, w, flat[r*n+w], want[r][w])
							}
							if cols[w*m+r] != want[r][w] {
								t.Fatalf("%s SortBatchCols: row %d slot %d = %q, want %q", name, r, w, cols[w*m+r], want[r][w])
							}
						}
					}
				}
			}
		}
	})
}
