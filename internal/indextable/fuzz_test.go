package indextable

import (
	"testing"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/vmem"
)

// decodeShape turns an arbitrary byte string into a GThV struct type: each
// byte pair picks a field kind and a count, so the fuzzer explores layouts
// (scalar runs, nested structs, pointer fields, long arrays) rather than
// raw bytes. Returns nil when the input encodes no fields.
func decodeShape(data []byte) *tag.Struct {
	var fields []tag.Field
	name := 'a'
	for i := 0; i+1 < len(data) && len(fields) < 16; i += 2 {
		kind, n := data[i]%8, int(data[i+1]%64)+1
		var ft tag.Type
		switch kind {
		case 0:
			ft = tag.Char()
		case 1:
			ft = tag.Int()
		case 2:
			ft = tag.Long()
		case 3:
			ft = tag.Double()
		case 4:
			ft = tag.Pointer{}
		case 5:
			ft = tag.IntArray(n)
		case 6:
			ft = tag.DoubleArray(n)
		default:
			// Nested struct of a char and an int array — the shape that
			// produces interior padding on aligned ABIs.
			ft = tag.Struct{Name: "in", Fields: []tag.Field{
				{Name: "c", T: tag.Char()},
				{Name: "v", T: tag.IntArray(n%8 + 1)},
			}}
		}
		fields = append(fields, tag.Field{Name: string(name), T: ft})
		name++
	}
	if len(fields) == 0 {
		return nil
	}
	return &tag.Struct{Name: "GThV_t", Fields: fields}
}

// FuzzIndexTable builds the index table for arbitrary GThV shapes on every
// platform and checks the invariants the DSM update path rests on:
//
//   - entry indexes are architecture independent (tables built on any two
//     platforms are Compatible);
//   - MapOffset inverts addEntry for every element, and padding bytes map
//     to no element;
//   - MapRanges covers exactly the elements of MapRangesNoCoalesce, stays
//     in bounds, and its spans survive a MergeSpans round trip;
//   - SpanOffset/SpanBytes address storage inside the segment, and
//     AppendSpanTag renders SpanTag's text;
//   - AppendMapRanges equals MapRanges and the byte-by-byte MapOffset
//     reference on unsorted, overlapping and empty range lists, and leaves
//     the spans already in its destination alone.
//
// The corpus seeds encode the unit-test fixtures: the paper's Table 1
// struct, the padded nested struct, and an array-of-struct shape.
func FuzzIndexTable(f *testing.F) {
	f.Add([]byte{4, 0, 5, 36, 5, 36, 5, 36, 1, 0}, uint16(0), uint16(64))   // Table 1: ptr + 3 int arrays + int
	f.Add([]byte{0, 0, 1, 0, 3, 0}, uint16(1), uint16(9))                   // char/int/double padding shape
	f.Add([]byte{7, 3, 7, 3}, uint16(2), uint16(31))                        // array-of-struct flattening
	f.Add([]byte{4, 0, 4, 0, 0, 0}, uint16(0), uint16(1))                   // pointers + trailing char
	f.Add([]byte{5, 63, 6, 63, 2, 0, 255, 255}, uint16(100), uint16(10000)) // long arrays, wild range
	f.Fuzz(func(t *testing.T, data []byte, start, length uint16) {
		shape := decodeShape(data)
		if shape == nil {
			return
		}
		const base = 0x40058000
		tables := make([]*Table, 0, 4)
		for _, p := range platform.All() {
			l, err := tag.NewLayout(*shape, p)
			if err != nil {
				return // shape rejected uniformly; nothing to check
			}
			tb, err := Build(l, base)
			if err != nil {
				t.Fatalf("%s: Build failed on a valid layout: %v", p, err)
			}
			tables = append(tables, tb)

			// MapOffset must invert element addressing, exactly.
			for i := 0; i < tb.Len(); i++ {
				e := tb.Entry(i)
				for elem := 0; elem < e.Count; elem++ {
					gi, ge, ok := tb.MapOffset(e.Offset + elem*e.ElemSize)
					if !ok || gi != i || ge != elem {
						t.Fatalf("%s: MapOffset(%d) = (%d,%d,%v), want (%d,%d)",
							p, e.Offset+elem*e.ElemSize, gi, ge, ok, i, elem)
					}
				}
			}

			// A dirty byte range maps to in-bounds spans covering the same
			// element set coalesced or not.
			lo := int(start) % tb.Size()
			hi := lo + int(length)%(tb.Size()-lo+1)
			ranges := []vmem.Range{{Start: lo, End: hi}}
			spans := tb.MapRanges(ranges)
			elements := func(spans []Span) map[[2]int]bool {
				set := make(map[[2]int]bool)
				for _, s := range spans {
					e := tb.Entry(s.Entry)
					if s.First < 0 || s.Count < 1 || s.First+s.Count > e.Count {
						t.Fatalf("%s: span %+v out of bounds for entry %+v", p, s, e)
					}
					if off := tb.SpanOffset(s); off < 0 || off+tb.SpanBytes(s) > tb.Size() {
						t.Fatalf("%s: span %+v storage [%d,%d) outside segment of %d",
							p, s, off, off+tb.SpanBytes(s), tb.Size())
					}
					for i := 0; i < s.Count; i++ {
						set[[2]int{s.Entry, s.First + i}] = true
					}
				}
				return set
			}
			cov := elements(spans)
			for _, s := range spans {
				if got, want := string(tb.AppendSpanTag(nil, s)), tb.SpanTag(s).String(); got != want {
					t.Fatalf("%s: AppendSpanTag(%+v) = %q, SpanTag %q", p, s, got, want)
				}
			}
			single := elements(tb.MapRangesNoCoalesce(ranges))
			if len(cov) != len(single) {
				t.Fatalf("%s: coalesced covers %d elements, non-coalesced %d", p, len(cov), len(single))
			}
			for k := range single {
				if !cov[k] {
					t.Fatalf("%s: element %v lost by coalescing", p, k)
				}
			}
			if merged := MergeSpans(spans); len(elements(merged)) != len(cov) {
				t.Fatalf("%s: MergeSpans changed coverage", p)
			}

			// A multi-range list in whatever order the fuzzer wrote it:
			// each data byte pair is one range, some empty or inverted.
			multi := []vmem.Range{{Start: lo, End: hi}}
			for i := 0; i+1 < len(data); i += 2 {
				s := (int(data[i]) * int(start+1)) % tb.Size()
				multi = append(multi, vmem.Range{Start: s, End: s + int(data[i+1]) - 64})
			}
			checkAppendMapRanges(t, tb, multi)
			checkAppendMapRanges(t, tb, nil)
		}
		// Entry indexes are the cross-platform contract.
		for _, tb := range tables[1:] {
			if err := Compatible(tables[0], tb); err != nil {
				t.Fatalf("same shape incompatible across platforms: %v", err)
			}
		}
	})
}

// refMapRanges maps every dirty byte through MapOffset and merges the
// element set: the coalesced spans a correct mapper must produce.
func refMapRanges(tb *Table, ranges []vmem.Range) []Span {
	var elems []Span
	for _, r := range ranges {
		for off := max(r.Start, 0); off < min(r.End, tb.Size()); off++ {
			if entry, elem, ok := tb.MapOffset(off); ok {
				elems = append(elems, Span{Entry: entry, First: elem, Count: 1})
			}
		}
	}
	return MergeSpans(elems)
}

func checkAppendMapRanges(t *testing.T, tb *Table, ranges []vmem.Range) {
	t.Helper()
	orig := append([]vmem.Range(nil), ranges...)
	want := refMapRanges(tb, ranges)
	got := tb.MapRanges(ranges)
	prefix := []Span{{Entry: 0, First: 0, Count: 1}}
	app := tb.AppendMapRanges(append([]Span(nil), prefix...), ranges)
	if len(got) != len(want) || len(app) != 1+len(want) || app[0] != prefix[0] {
		t.Fatalf("ranges %v: MapRanges %v, AppendMapRanges %v, reference %v", ranges, got, app, want)
	}
	for i := range want {
		if got[i] != want[i] || app[1+i] != want[i] {
			t.Fatalf("ranges %v: MapRanges %v, AppendMapRanges %v, reference %v", ranges, got, app, want)
		}
	}
	for i := range orig {
		if ranges[i] != orig[i] {
			t.Fatalf("mapping reordered the caller's ranges: %v, was %v", ranges, orig)
		}
	}
}
