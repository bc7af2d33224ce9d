package vmem

import (
	"bytes"
	"math/rand"
	"testing"
)

// refRuns is the reference diff: a plain byte loop over whole images, so
// runs merge across page boundaries by construction.
func refRuns(cur, old []byte, base int) []Range {
	var out []Range
	for i := 0; i < len(cur); {
		if cur[i] == old[i] {
			i++
			continue
		}
		start := i
		for i < len(cur) && cur[i] != old[i] {
			i++
		}
		out = append(out, Range{Start: base + start, End: base + i})
	}
	return out
}

func equalRanges(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAppendRunsMatchesReference drives the word scanner directly on
// buffers of every length from 0 to 80, so tails that are not a multiple
// of 8 and runs straddling word edges are all covered.
func TestAppendRunsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 80; n++ {
		for trial := 0; trial < 200; trial++ {
			old := make([]byte, n)
			r.Read(old)
			cur := append([]byte(nil), old...)
			density := r.Intn(4)
			for i := range cur {
				if r.Intn(4) < density {
					cur[i] ^= byte(1 + r.Intn(255))
				}
			}
			got, runs, nbytes := appendRuns(nil, cur, old, 100, 0)
			want := refRuns(cur, old, 100)
			if !equalRanges(got, want) {
				t.Fatalf("n=%d: got %v, want %v", n, got, want)
			}
			sum := 0
			for _, rg := range want {
				sum += rg.Len()
			}
			if runs != len(want) || nbytes != sum {
				t.Fatalf("n=%d: counted %d runs/%d bytes, want %d/%d", n, runs, nbytes, len(want), sum)
			}
		}
	}
}

// diffAgainstReference writes a random pattern into a protected segment
// and checks Diff, AppendDiff and the per-page DiffPage against the byte
// loop over a snapshot taken at ProtectAll.
func diffAgainstReference(t *testing.T, s *Segment, r *rand.Rand, writes int) {
	t.Helper()
	s.ProtectAll()
	snap := append([]byte(nil), s.data...)
	ps := s.PageSize()
	for i := 0; i < writes; i++ {
		var off, n int
		switch r.Intn(3) {
		case 0: // straddle a page boundary
			p := 1 + r.Intn(s.Pages()-1)
			off = p*ps - 1 - r.Intn(12)
			n = 2 + r.Intn(24)
		case 1: // straddle a word edge
			off = 8*r.Intn(s.Size()/8-2) + 5
			n = 1 + r.Intn(6)
		default:
			off = r.Intn(s.Size() - 64)
			n = 1 + r.Intn(64)
		}
		if off+n > s.Size() {
			n = s.Size() - off
		}
		b := make([]byte, n)
		r.Read(b)
		if err := s.Write(off, b); err != nil {
			t.Fatal(err)
		}
	}
	want := refRuns(s.data, snap, 0)
	if got := s.Diff(DiffByte); !equalRanges(got, want) {
		t.Fatalf("Diff = %v, want %v", got, want)
	}
	if got := s.Diff(DiffWord); !equalRanges(got, want) {
		t.Fatalf("Diff(DiffWord) = %v, want %v", got, want)
	}
	prefix := []Range{{Start: -10, End: 0}}
	if got := s.AppendDiff(prefix); len(got) != 1+len(want) || got[0] != prefix[0] || !equalRanges(got[1:], want) {
		t.Fatalf("AppendDiff after a touching prefix = %v, want the prefix then %v", got, want)
	}
	for _, p := range s.DirtyPages() {
		lo, hi := p*ps, (p+1)*ps
		if got, want := s.DiffPage(p, DiffByte), refRuns(s.data[lo:hi], snap[lo:hi], lo); !equalRanges(got, want) {
			t.Fatalf("DiffPage(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestDiffMatchesReference(t *testing.T) {
	for _, ps := range []int{4096, 8192} {
		r := rand.New(rand.NewSource(int64(ps)))
		s := MustSegment(0, 4*ps, ps)
		for trial := 0; trial < 100; trial++ {
			// Reused segment: the twins recycled from the previous
			// window must not leak into this one.
			diffAgainstReference(t, s, r, 1+r.Intn(40))
		}
	}
}

func TestDirtyListOrderAndRecycling(t *testing.T) {
	s := MustSegment(0, 4*4096, 4096)
	s.ProtectAll()
	for _, p := range []int{3, 0, 2} {
		if err := s.Write(p*4096+7, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.DirtyPages(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("DirtyPages = %v, want [0 2 3]", got)
	}
	tw := &s.twins[3][0]
	s.ProtectAll()
	if len(s.DirtyPages()) != 0 || s.TwinBytes() != 0 {
		t.Fatal("ProtectAll must empty the dirty list")
	}
	if err := s.Write(3*4096, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if &s.twins[3][0] != tw {
		t.Error("a re-trapped page must reuse its twin buffer")
	}
	if got := s.Diff(DiffByte); len(got) != 1 || got[0] != (Range{Start: 3 * 4096, End: 3*4096 + 1}) {
		t.Errorf("diff on a recycled twin = %v", got)
	}
}

func TestAppendDiffWarmDoesNotAllocate(t *testing.T) {
	s := MustSegment(0, 16*4096, 4096)
	s.ProtectAll()
	for off := 0; off < s.Size(); off += 999 {
		if err := s.Write(off, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	dst := s.AppendDiff(nil)
	if n := testing.AllocsPerRun(50, func() { dst = s.AppendDiff(dst[:0]) }); n != 0 {
		t.Errorf("warm AppendDiff allocated %v times per call", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		s.ProtectAll()
		if err := s.Write(4096, []byte{7}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm ProtectAll + re-trap allocated %v times", n)
	}
}

// FuzzDiff checks the word scanner against the byte loop on fuzzer-chosen
// page sizes and write patterns: each 4-byte group of data is one write
// (offset, length, value), so runs land anywhere relative to words and
// page edges.
func FuzzDiff(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 3, 0xff})
	f.Add(uint8(1), []byte{0x1f, 0xfe, 9, 1, 0x20, 0x00, 16, 2})
	f.Add(uint8(2), []byte{0, 5, 1, 7, 0, 13, 200, 0})
	f.Add(uint8(3), bytes.Repeat([]byte{0x0f, 0xf9, 40, 0xaa}, 6))
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		pageSizes := []int{4096, 8192, 8, 64}
		ps := pageSizes[int(shape)%len(pageSizes)]
		s := MustSegment(0, 3*ps, ps)
		init := make([]byte, s.Size())
		for i := range init {
			init[i] = byte(i * 7)
		}
		if err := s.Write(0, init); err != nil {
			t.Fatal(err)
		}
		s.ProtectAll()
		snap := append([]byte(nil), s.data...)
		for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
			off := (int(data[i])<<8 | int(data[i+1])) % s.Size()
			n := 1 + int(data[i+2])%64
			if off+n > s.Size() {
				n = s.Size() - off
			}
			b := make([]byte, n)
			for j := range b {
				b[j] = data[i+3] + byte(j)
			}
			if err := s.Write(off, b); err != nil {
				t.Fatal(err)
			}
		}
		want := refRuns(s.data, snap, 0)
		if got := s.Diff(DiffByte); !equalRanges(got, want) {
			t.Fatalf("page %d: Diff = %v, want %v", ps, got, want)
		}
	})
}
