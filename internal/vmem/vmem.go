// Package vmem is the software MMU underneath the DSD layer.
//
// The paper detects writes with mprotect(): globals are write-protected, the
// first store to a page raises SIGSEGV, the handler twins the page and
// unprotects it so later stores proceed at full speed, and at release time
// each dirty page is diffed against its twin (Section 4). Go cannot
// mprotect its own heap, so this package reproduces the same mechanism in
// software: a Segment is a paged byte region with per-page write protection;
// stores go through Segment.Write, which performs the trap/twin/unprotect
// dance with identical first-touch semantics and cost structure (one trap
// and one page copy per dirty page, then raw stores).
package vmem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// FaultFunc observes write traps; the DSD layer uses it for accounting.
// page is the index of the page being unprotected.
type FaultFunc func(page int)

// Segment is one virtually-addressed, paged memory region. A Segment is
// owned by a single node goroutine; it is not safe for concurrent use, just
// as a process address space belongs to one process.
type Segment struct {
	base     uint64
	pageSize int
	data     []byte
	prot     []bool
	onFault  FaultFunc
	faults   uint64

	// twins holds one page-sized buffer per page ever trapped; buffers are
	// recycled across ProtectAll, so a warm segment copies its twins
	// without allocating. twinned marks the buffers that hold a live twin
	// in the current detection window, and dirty lists those pages (in
	// trap order) so release-time work is proportional to the pages
	// written, not to the segment. twinBufs counts the allocated buffers.
	twins    [][]byte
	twinned  []bool
	dirty    []int
	twinBufs int

	// Per-page heat accounting, cumulative since creation: write traps
	// taken, diff runs produced and diff bytes found on each page. A page
	// with many faults and many small diff runs is a false-sharing
	// suspect — distinct objects on one page ping-ponging the twin/diff
	// machinery.
	heatFaults    []uint64
	heatDiffRuns  []uint64
	heatDiffBytes []uint64
	twinsMade     uint64
}

// NewSegment creates a segment of the given size at virtual address base
// with the given page size. The size is rounded up to a whole number of
// pages. base must itself be page aligned, mirroring mmap semantics.
func NewSegment(base uint64, size, pageSize int) (*Segment, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("vmem: page size %d is not a power of two", pageSize)
	}
	if size <= 0 {
		return nil, fmt.Errorf("vmem: segment size %d must be positive", size)
	}
	if base%uint64(pageSize) != 0 {
		return nil, fmt.Errorf("vmem: base %#x not aligned to page size %d", base, pageSize)
	}
	pages := (size + pageSize - 1) / pageSize
	return &Segment{
		base:          base,
		pageSize:      pageSize,
		data:          make([]byte, pages*pageSize),
		prot:          make([]bool, pages),
		twins:         make([][]byte, pages),
		twinned:       make([]bool, pages),
		heatFaults:    make([]uint64, pages),
		heatDiffRuns:  make([]uint64, pages),
		heatDiffBytes: make([]uint64, pages),
	}, nil
}

// MustSegment is NewSegment that panics on error, for statically correct
// construction sites.
func MustSegment(base uint64, size, pageSize int) *Segment {
	s, err := NewSegment(base, size, pageSize)
	if err != nil {
		panic(err)
	}
	return s
}

// Base returns the virtual base address.
func (s *Segment) Base() uint64 { return s.base }

// Size returns the segment length in bytes (a whole number of pages).
func (s *Segment) Size() int { return len(s.data) }

// PageSize returns the page size.
func (s *Segment) PageSize() int { return s.pageSize }

// Pages returns the number of pages.
func (s *Segment) Pages() int { return len(s.prot) }

// Faults returns the number of write traps taken since creation.
func (s *Segment) Faults() uint64 { return s.faults }

// OnFault registers a hook invoked on every write trap (after the twin is
// made). Pass nil to remove it.
func (s *Segment) OnFault(f FaultFunc) { s.onFault = f }

// Contains reports whether the virtual address range [addr, addr+n) lies
// inside the segment.
func (s *Segment) Contains(addr uint64, n int) bool {
	return addr >= s.base && addr+uint64(n) <= s.base+uint64(len(s.data))
}

// Addr translates a segment offset to a virtual address.
func (s *Segment) Addr(off int) uint64 { return s.base + uint64(off) }

// Offset translates a virtual address to a segment offset; it returns an
// error when the address is outside the segment.
func (s *Segment) Offset(addr uint64) (int, error) {
	if addr < s.base || addr >= s.base+uint64(len(s.data)) {
		return 0, fmt.Errorf("vmem: address %#x outside segment [%#x,%#x)", addr, s.base, s.base+uint64(len(s.data)))
	}
	return int(addr - s.base), nil
}

// ProtectAll write-protects every page and discards all twins. This is the
// DSD's "mprotect the globals" step at acquire time. The twin buffers are
// kept for the next window's traps.
func (s *Segment) ProtectAll() {
	for i := range s.prot {
		s.prot[i] = true
	}
	s.DropTwins()
}

// UnprotectAll removes write protection from every page without touching
// twins; used when a node wants raw access (e.g. while initially loading
// data before sharing begins).
func (s *Segment) UnprotectAll() {
	for i := range s.prot {
		s.prot[i] = false
	}
}

// Protected reports whether the page is currently write-protected.
func (s *Segment) Protected(page int) bool { return s.prot[page] }

// Read copies n bytes at offset off into buf (which must be at least n
// long) and returns buf[:n]. Reads never fault: the paper protects pages
// against writes only.
func (s *Segment) Read(off, n int, buf []byte) ([]byte, error) {
	if err := s.check(off, n); err != nil {
		return nil, err
	}
	copy(buf[:n], s.data[off:off+n])
	return buf[:n], nil
}

// View returns a read-only view of n bytes at off without copying. The
// caller must not mutate it (mutations would bypass write detection; use
// Write). It remains valid until the segment is garbage.
func (s *Segment) View(off, n int) ([]byte, error) {
	if err := s.check(off, n); err != nil {
		return nil, err
	}
	return s.data[off : off+n : off+n], nil
}

// Write stores b at offset off, taking a write trap on the first store to
// each protected page: the page is twinned, unprotected, and the fault hook
// runs — exactly the SIGSEGV-handler protocol of the paper.
func (s *Segment) Write(off int, b []byte) error {
	if err := s.check(off, len(b)); err != nil {
		return err
	}
	first := off / s.pageSize
	last := (off + len(b) - 1) / s.pageSize
	for p := first; p <= last; p++ {
		if s.prot[p] {
			s.trap(p)
		}
	}
	copy(s.data[off:], b)
	return nil
}

// trap performs the fault protocol on one page: twin, unprotect, notify.
func (s *Segment) trap(p int) {
	if s.twins[p] == nil {
		s.twins[p] = make([]byte, s.pageSize)
		s.twinBufs++
	}
	copy(s.twins[p], s.data[p*s.pageSize:(p+1)*s.pageSize])
	if !s.twinned[p] {
		s.twinned[p] = true
		s.dirty = append(s.dirty, p)
	}
	s.prot[p] = false
	s.faults++
	s.heatFaults[p]++
	s.twinsMade++
	if s.onFault != nil {
		s.onFault(p)
	}
}

// RawWrite stores without the protection protocol. It is used by the DSD
// when applying remote updates to the local copy: those bytes are already
// known to both sides and must not be re-detected as local writes.
func (s *Segment) RawWrite(off int, b []byte) error {
	if err := s.check(off, len(b)); err != nil {
		return err
	}
	copy(s.data[off:], b)
	return nil
}

// ApplyRemote stores an incoming DSD update. Like RawWrite it takes no
// write trap, but it additionally patches any existing twin of the touched
// pages so the remote bytes do not show up in this node's next diff: they
// are the home's data, not local writes, and echoing them back would inflate
// every release.
func (s *Segment) ApplyRemote(off int, b []byte) error {
	if err := s.check(off, len(b)); err != nil {
		return err
	}
	copy(s.data[off:], b)
	first := off / s.pageSize
	last := (off + len(b) - 1) / s.pageSize
	for p := first; p <= last; p++ {
		if !s.twinned[p] {
			continue
		}
		tw := s.twins[p]
		pageStart := p * s.pageSize
		lo, hi := off, off+len(b)
		if lo < pageStart {
			lo = pageStart
		}
		if end := pageStart + s.pageSize; hi > end {
			hi = end
		}
		copy(tw[lo-pageStart:], b[lo-off:hi-off])
	}
	return nil
}

func (s *Segment) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(s.data) {
		return fmt.Errorf("vmem: range [%d,%d) outside segment of %d bytes", off, off+n, len(s.data))
	}
	return nil
}

// DirtyPages returns the indexes of pages written since the last
// ProtectAll, in ascending order, as a fresh slice.
func (s *Segment) DirtyPages() []int {
	return slices.Clone(s.sortedDirty())
}

// sortedDirty puts the dirty list in page order and returns it. Writes
// mostly move forward through memory, so the list is usually sorted
// already, which slices.Sort detects in linear time.
func (s *Segment) sortedDirty() []int {
	slices.Sort(s.dirty)
	return s.dirty
}

// PageFaults returns the cumulative number of write traps taken on page.
func (s *Segment) PageFaults(page int) uint64 { return s.heatFaults[page] }

// Range is a half-open byte span [Start, End) of segment offsets.
type Range struct {
	// Start is the first offset in the span.
	Start int
	// End is one past the last offset.
	End int
}

// Len returns the span length.
func (r Range) Len() int { return r.End - r.Start }

// DiffGranularity names the twin comparison granularity Diff and DiffPage
// accept. Both values run the same word-at-a-time scanner, which is
// byte-exact, so they return identical ranges; the type survives only so
// existing callers keep compiling.
type DiffGranularity int

const (
	// DiffByte asks for byte-exact ranges — the paper's comparison of
	// "each byte on the dirty page ... to its corresponding byte on the
	// original page" (Section 4.2).
	DiffByte DiffGranularity = iota
	// DiffWord is accepted for compatibility and behaves as DiffByte.
	DiffWord
)

// DiffPage compares a dirty page against its twin and returns the modified
// byte ranges as segment offsets in a fresh slice. A page without a twin
// yields nil. This is the t_index raw material: the DSD maps these ranges
// through the index table.
func (s *Segment) DiffPage(page int, _ DiffGranularity) []Range {
	if !s.twinned[page] {
		return nil
	}
	return s.diffPage(nil, page, 0)
}

// diffPage appends the page's modified runs to dst (see appendRuns for
// floor) and adds the page's own runs, counted before any cross-page
// merge, to its heat counters.
func (s *Segment) diffPage(dst []Range, page, floor int) []Range {
	base := page * s.pageSize
	dst, runs, bytes := appendRuns(dst, s.data[base:base+s.pageSize], s.twins[page], base, floor)
	s.heatDiffRuns[page] += uint64(runs)
	s.heatDiffBytes[page] += uint64(bytes)
	return dst
}

// hiBits has the top bit of every byte set.
const (
	hiBits  = 0x8080808080808080
	lowBits = 0x7f7f7f7f7f7f7f7f
)

// nonzeroBytes returns a mask with the top bit of byte k set exactly when
// byte k of x is nonzero. Adding 0x7f to the low seven bits of a byte
// carries into its top bit iff those bits are not all zero, and no carry
// crosses into the next byte.
func nonzeroBytes(x uint64) uint64 {
	return (((x & lowBits) + lowBits) | x) & hiBits
}

// appendRuns appends the maximal runs where cur and tw differ, as offsets
// base+i, to dst. It compares eight bytes per step: an XOR that is zero
// (the common case on a sparsely written page) or all-nonzero inside an
// open run (a dense write) costs one load pair and one test; only words
// holding a run edge are split, by locating the edges with trailing-zero
// counts over the per-byte nonzero mask. Results are byte-exact. A first
// run touching dst's last range merges into it when that range's index is
// at least floor. It also returns how many runs it found and how many
// bytes they cover.
func appendRuns(dst []Range, cur, tw []byte, base, floor int) (_ []Range, runs, bytes int) {
	n := len(cur)
	tw = tw[:n]
	open := false
	start := 0
	emit := func(end int) {
		runs++
		bytes += end - start
		if k := len(dst) - 1; k >= floor && k >= 0 && dst[k].End == base+start {
			dst[k].End = base + end
		} else {
			dst = append(dst, Range{Start: base + start, End: base + end})
		}
		open = false
	}
	i := 0
	for i+8 <= n {
		x := binary.LittleEndian.Uint64(cur[i:]) ^ binary.LittleEndian.Uint64(tw[i:])
		if !open {
			// Skip equal words, the common case on a sparsely written page.
			for x == 0 {
				if i += 8; i+8 > n {
					break
				}
				x = binary.LittleEndian.Uint64(cur[i:]) ^ binary.LittleEndian.Uint64(tw[i:])
			}
			if x == 0 {
				break
			}
		}
		nz := nonzeroBytes(x)
		if open && nz == hiBits {
			// Fully changed word inside a run: a dense write.
			i += 8
			continue
		}
		zero := ^nz & hiBits
		for {
			if open {
				if zero == 0 {
					break // the run continues into the next word
				}
				b := bits.TrailingZeros64(zero) >> 3
				emit(i + b)
				nz &^= 1<<(8*b) - 1
			} else {
				if nz == 0 {
					break
				}
				b := bits.TrailingZeros64(nz) >> 3
				start, open = i+b, true
				zero &^= 1<<(8*b) - 1
			}
		}
		i += 8
	}
	for ; i < n; i++ {
		if cur[i] != tw[i] {
			if !open {
				start, open = i, true
			}
		} else if open {
			emit(i)
		}
	}
	if open {
		emit(n)
	}
	return dst, runs, bytes
}

// Diff runs DiffPage over every dirty page and returns all modified ranges
// in ascending order, merging runs that touch across page boundaries. The
// result is a fresh slice; see AppendDiff for the allocation-free form.
func (s *Segment) Diff(_ DiffGranularity) []Range {
	return s.AppendDiff(nil)
}

// AppendDiff appends the modified ranges of every dirty page to dst, in
// ascending order with runs that touch across a page boundary merged, and
// returns the extended slice. With a warm dst (cap reused across releases)
// it does not allocate. Ranges already in dst are left untouched.
func (s *Segment) AppendDiff(dst []Range) []Range {
	floor := len(dst)
	for _, p := range s.sortedDirty() {
		dst = s.diffPage(dst, p, floor)
	}
	return dst
}

// DropTwins discards all twins without re-protecting; used after a diff has
// been consumed when the pages should stay writable.
func (s *Segment) DropTwins() {
	for _, p := range s.dirty {
		s.twinned[p] = false
	}
	s.dirty = s.dirty[:0]
}

// TwinBytes returns the number of bytes currently held in live twins, the
// twin memory the current detection window needs. Recycled buffers not
// holding a twin in this window are not counted; RetainedTwinBytes is the
// memory actually held.
func (s *Segment) TwinBytes() int {
	return len(s.dirty) * s.pageSize
}

// RetainedTwinBytes returns the bytes held in twin buffers, live or kept
// for reuse: one page for every page ever trapped. A segment written
// everywhere once keeps a shadow copy of its own size. This is the memory
// overhead of the twin/diff scheme.
func (s *Segment) RetainedTwinBytes() int {
	return s.twinBufs * s.pageSize
}
