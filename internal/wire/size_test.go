package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fullMessage sets every field of a message of kind k, so each encoded
// section is non-empty.
func fullMessage(k Kind) *Message {
	return &Message{
		Kind: k, Seq: 9, Rank: 3, Mutex: 1, Platform: "linux-x86", Base: 0x40058000,
		Updates: []Update{
			{Entry: 2, First: 4, Count: 2, Tag: "(8,2)", Data: bytes.Repeat([]byte{7}, 16)},
			{Entry: 0, First: 0, Count: 1, Tag: "(4,-1)", Data: []byte{1, 2, 3, 4}},
		},
		State: &ThreadState{PC: 5, FrameTag: "(4,1)", Frame: []byte{1, 2, 3, 4}, ExtraTag: "(1,3)", Extra: []byte{5, 6, 7}},
		Err:   "boom", Addr: "127.0.0.1:7200", Proto: 1, Flags: FlagWarmReplica, Epoch: 4,
		Rep: &Replication{
			Seq: 11, Event: RepInit, Rank: -1, Mutex: -1, Platform: "solaris-sparc", Base: 0x1000,
			Image: []byte{9, 9, 9}, Tag: "(8,3)", Dirty: true, Proto: 1, Nthreads: 2,
			Updates:  []Update{{Entry: 1, First: 0, Count: 1, Tag: "(8,1)", Data: make([]byte, 8)}},
			Held:     []RepPair{{Rank: 0, Seq: 2}},
			Joined:   []int32{1, 2},
			Applied:  []RepPair{{Rank: 1, Seq: 3}},
			Released: []RepPair{{Rank: 1, Seq: 4}, {Rank: 2, Seq: 5}},
			Epoch:    4, TraceID: 6, ParentSpan: 7,
		},
		Shard:      2,
		Dir:        []DirEntry{{Object: 3, Lock: true, Shard: 1, Ver: 8}, {Object: 4, Shard: 0, Ver: 1}},
		Heat:       []HeatSample{{Page: 1, Faults: 2}, {Page: 7, Faults: 1}},
		TraceID:    12,
		ParentSpan: 13,
		DeadlineMS: 250,
	}
}

// TestEncodeSizesExactly pins that Encode allocates its frame at the final
// size (cap == len, no growth copy) for every kind, with and without each
// optional section, and that the frame round-trips.
func TestEncodeSizesExactly(t *testing.T) {
	for k := KindInvalid + 1; k < numKinds; k++ {
		for _, m := range []*Message{{Kind: k}, fullMessage(k)} {
			b, err := Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			if cap(b) != len(b) {
				t.Errorf("%v: frame len %d cap %d", k, len(b), cap(b))
			}
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("%v: %v", k, err)
			}
			if m.State != nil && !reflect.DeepEqual(got, m) {
				t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", k, got, m)
			}
			if again, _ := Encode(got); !bytes.Equal(again, b) {
				t.Errorf("%v: re-encoding differs", k)
			}
		}
	}
	r := fullMessage(KindReplicate).Rep
	if b := EncodeReplication(r); cap(b) != len(b) {
		t.Errorf("replication record len %d cap %d", len(b), cap(b))
	}
	// An over-long string is clamped on the wire; the size must follow.
	long := &Message{Kind: KindUnlockAck, Err: strings.Repeat("x", maxStringLen+10)}
	if b, err := Encode(long); err != nil || cap(b) != len(b) || len(b) != encodedSize(long) {
		t.Errorf("clamped string: len %d cap %d err %v", len(b), cap(b), err)
	}
}
