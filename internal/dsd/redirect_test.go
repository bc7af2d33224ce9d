package dsd

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// scriptedHome accepts connections at addr on nw and answers each with
// serve, passing the 0-based connection number. It returns a counter of
// accepted connections.
func scriptedHome(t *testing.T, nw *transport.Inproc, addr string, serve func(n int, c transport.Conn)) *atomic.Int32 {
	t.Helper()
	l, err := nw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var accepted atomic.Int32
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go serve(int(accepted.Add(1))-1, c)
		}
	}()
	return &accepted
}

// replyAll answers every frame on c with reply(kind of the frame) until
// the connection closes.
func replyAll(c transport.Conn, reply func(wire.Kind) *wire.Message) {
	defer c.Close()
	for {
		f, err := c.RecvFrame()
		if err != nil {
			return
		}
		b, err := wire.Encode(reply(wire.Kind(f[0])))
		if err != nil || c.SendFrame(b) != nil {
			return
		}
	}
}

// TestFollowRedirectRetriesClosedRegistration pins followRedirect's retry:
// a successor home that still holds the rank closes the first hello, and
// the thread must register on a later attempt. Any other refusal fails at
// once, without a retry.
func TestFollowRedirectRetriesClosedRegistration(t *testing.T) {
	ack := &wire.Message{Kind: wire.KindHelloAck, Platform: platform.LinuxX86.Name, Base: DefaultBase}
	run := func(t *testing.T, refuse func(c transport.Conn)) (*atomic.Int32, error) {
		nw := transport.NewInproc()
		scriptedHome(t, nw, "old", func(_ int, c transport.Conn) {
			replyAll(c, func(k wire.Kind) *wire.Message {
				if k == wire.KindHello {
					return ack
				}
				return &wire.Message{Kind: wire.KindRedirect, Addr: "new"}
			})
		})
		accepted := scriptedHome(t, nw, "new", func(n int, c transport.Conn) {
			if n == 0 {
				refuse(c)
				return
			}
			replyAll(c, func(k wire.Kind) *wire.Message {
				if k == wire.KindHello {
					return ack
				}
				return &wire.Message{Kind: wire.KindLockGrant, Platform: platform.LinuxX86.Name}
			})
		})
		th, err := Dial(nw, "old", platform.LinuxX86, 0, testGThV(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer th.Close()
		return accepted, th.Lock(0)
	}

	t.Run("closed hello is retried", func(t *testing.T) {
		accepted, err := run(t, func(c transport.Conn) {
			c.RecvFrame()
			c.Close()
		})
		if err != nil {
			t.Fatalf("lock after redirect: %v", err)
		}
		if n := accepted.Load(); n != 2 {
			t.Errorf("successor accepted %d connections, want 2", n)
		}
	})

	t.Run("other refusal fails at once", func(t *testing.T) {
		start := time.Now()
		accepted, err := run(t, func(c transport.Conn) {
			replyAll(c, func(wire.Kind) *wire.Message {
				return &wire.Message{Kind: wire.KindHelloAck, Platform: "vax", Base: DefaultBase}
			})
		})
		if err == nil || !strings.Contains(err.Error(), "unknown platform") {
			t.Fatalf("lock after refused redirect: %v, want an unknown-platform error", err)
		}
		if n := accepted.Load(); n != 1 {
			t.Errorf("successor accepted %d connections, want 1", n)
		}
		if d := time.Since(start); d > RegisterRetryWindow/2 {
			t.Errorf("refusal took %v to surface", d)
		}
	})
}
