package indextable

import (
	"math/rand"
	"slices"
	"testing"
)

func randSpan(r *rand.Rand) Span {
	return Span{Entry: r.Intn(3), First: r.Intn(60), Count: 1 + r.Intn(12)}
}

// TestInsertSpanMatchesMergeSpans builds random sets both ways: one span at
// a time through InsertSpan, and by re-merging the whole list after every
// addition, which is what the pending set did before.
func TestInsertSpanMatchesMergeSpans(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var set, ref []Span
		for i := r.Intn(30); i >= 0; i-- {
			s := randSpan(r)
			if r.Intn(3) == 0 && len(set) > 0 {
				// Forward-moving writes take the append/extend fast path.
				last := set[len(set)-1]
				s = Span{Entry: last.Entry, First: last.First + last.Count - r.Intn(2) + r.Intn(3), Count: 1 + r.Intn(4)}
			}
			set = InsertSpan(set, s)
			ref = MergeSpans(append(ref, s))
			if !slices.Equal(set, ref) {
				t.Fatalf("trial %d: after inserting %+v got %v, want %v", trial, s, set, ref)
			}
		}
	}
}

// TestAppendDifferenceMatchesSubtractLoop checks the binary-search
// subtraction against the loop applyIncoming used to run: start from the
// span and SubtractSpan every member of the set from it.
func TestAppendDifferenceMatchesSubtractLoop(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5000; trial++ {
		var raw []Span
		for i := r.Intn(12); i > 0; i-- {
			raw = append(raw, randSpan(r))
		}
		set := MergeSpans(raw)
		u := randSpan(r)
		want := []Span{u}
		for _, d := range set {
			want = SubtractSpan(want, d)
		}
		prefix := []Span{{Entry: 9, First: 9, Count: 9}}
		got := AppendDifference(slices.Clone(prefix), u, set)
		if got[0] != prefix[0] {
			t.Fatalf("prefix clobbered: %v", got)
		}
		if !slices.Equal(got[1:], want) && !(len(got) == 1 && len(want) == 0) {
			t.Fatalf("trial %d: %+v minus %v = %v, want %v", trial, u, set, got[1:], want)
		}
	}
}
