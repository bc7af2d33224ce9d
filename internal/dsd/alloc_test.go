package dsd

import (
	"testing"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// cannedHome answers a thread's hello and every later request over c with
// pre-encoded frames and decodes nothing, so the process-wide allocation
// count of a release is the thread's own.
func cannedHome(t *testing.T, c transport.Conn, home *platform.Platform, release *wire.Message) {
	t.Helper()
	ack, err := wire.Encode(&wire.Message{Kind: wire.KindHelloAck, Platform: home.Name, Base: DefaultBase})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := wire.Encode(release)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			f, err := c.RecvFrame()
			if err != nil {
				return
			}
			reply := rel
			if wire.Kind(f[0]) == wire.KindHello {
				reply = ack
			}
			if c.SendFrame(reply) != nil {
				return
			}
		}
	}()
}

// TestReleaseAllocationsIndependentOfWriteCount pins the release pipeline
// at O(1) allocations per release once warm: a barrier after 512 scattered
// element writes (512 diff ranges, spans, tags and pending spans, several
// pages) allocates exactly as often as one after 4. The barrier release
// carries updates from a big-endian home, so conversion and the apply
// around the pending set run too.
func TestReleaseAllocationsIndependentOfWriteCount(t *testing.T) {
	const elems = 4096
	gthv := tag.Struct{Name: "GThV_t", Fields: []tag.Field{{Name: "A", T: tag.IntArray(elems)}}}
	home := platform.SolarisSPARC
	release := &wire.Message{Kind: wire.KindBarrierRelease, Platform: home.Name}
	for _, first := range []int32{3, 1000, 2500} {
		release.Updates = append(release.Updates, wire.Update{
			Entry: 0, First: first, Count: 16, Tag: "(4,16)", Data: make([]byte, 4*16),
		})
	}
	allocs := func(stride int) float64 {
		a, b := transport.Pipe()
		defer a.Close()
		cannedHome(t, b, home, release)
		th, err := Connect(a, platform.LinuxX86, 0, gthv, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		arr := th.Globals().MustVar("A")
		round := int64(0)
		return testing.AllocsPerRun(50, func() {
			round++
			for i := 0; i < elems; i += stride {
				if err := arr.SetInt(i, round); err != nil {
					t.Fatal(err)
				}
			}
			if err := th.Barrier(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(elems/4), allocs(elems/512)
	t.Logf("allocations per release: %v after 4 writes, %v after 512", few, many)
	if few != many {
		t.Errorf("a release allocates %v times after 4 writes but %v after 512", few, many)
	}
}
