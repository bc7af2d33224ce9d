package migthread

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"hetdsm/internal/checkpoint"
	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// Role is a thread slot's place in the paper's Figure 1 vocabulary.
type Role int

const (
	// RoleMaster is the default thread at the home node.
	RoleMaster Role = iota
	// RoleLocal is a slave thread at the home node.
	RoleLocal
	// RoleSkeleton holds a computing slot at a remote node, waiting for a
	// migrating state.
	RoleSkeleton
	// RoleRemote is a skeleton that received a state and is computing.
	RoleRemote
	// RoleStub is what a local/remote thread becomes after its state
	// leaves: it remains only for resource access bookkeeping.
	RoleStub
	// RoleDone is a thread that finished its work and joined.
	RoleDone
)

var roleNames = [...]string{"master", "local", "skeleton", "remote", "stub", "done"}

// String returns the paper's name for the role.
func (r Role) String() string {
	if r >= 0 && int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Work is a step-structured workload: the form MigThread's preprocessor
// reduces a thread function to. All migratable locals live in the Ctx's
// Frame; Step runs one safe-point-to-safe-point unit. Step must return at a
// release point (after Barrier/Unlock) so that a migration between steps
// never strands unflushed shared writes — the runtime additionally flushes
// at capture as a belt-and-suspenders measure.
type Work interface {
	// FrameType declares the thread's local frame structure.
	FrameType() tag.Struct
	// Init runs once when the thread starts fresh (not after migration).
	Init(ctx *Ctx) error
	// Step runs one unit; done reports completion.
	Step(ctx *Ctx) (done bool, err error)
}

// Capturer is an optional Work extension: when the thread migrates,
// CaptureExtra runs at the capture safe point and its payload (in the
// source platform's layout, with a CGT-RMR tag) travels with the thread
// state. The file-descriptor tables and socket states of internal/migio
// are designed to be carried this way.
type Capturer interface {
	// CaptureExtra serializes node-local resource state for the move.
	CaptureExtra(ctx *Ctx) (payload []byte, tagStr string, err error)
}

// Restorer is an optional Work extension: when a migrated state lands in a
// skeleton, Restore runs after the frame is rebuilt and before stepping
// resumes. Workloads use it to re-establish node-local resources the frame
// only describes — reopening migrated file descriptors, resuming sessions
// (see internal/migio), re-deriving pointers.
type Restorer interface {
	// Restore re-establishes node-local resources from the frame.
	Restore(ctx *Ctx) error
}

// Ctx is a running thread's view of its world: its DSD thread (globals and
// synchronization) and its local frame.
type Ctx struct {
	// T is the thread's DSD endpoint: Lock/Unlock/Barrier/Globals.
	T     *dsd.Thread
	frame *Frame
	pc    int64
	slot  *Slot

	// extra payload delivered by a migration (nil on fresh starts).
	extra        []byte
	extraTag     string
	extraSrcPlat string
}

// Frame returns the thread's migratable locals.
func (c *Ctx) Frame() *Frame { return c.frame }

// PC returns the logical program counter (completed step count).
func (c *Ctx) PC() int64 { return c.pc }

// Rank returns the thread's iso-computing rank.
func (c *Ctx) Rank() int32 { return c.slot.rank }

// Platform returns the hosting node's platform.
func (c *Ctx) Platform() *platform.Platform { return c.slot.node.plat }

// Extra returns the workload payload that travelled with a migration: the
// bytes, their CGT-RMR tag, and the name of the platform whose layout they
// are in. All zero values on a fresh start.
func (c *Ctx) Extra() (payload []byte, tagStr, srcPlatform string) {
	return c.extra, c.extraTag, c.extraSrcPlat
}

// MigrationRecord documents one completed migration for the harness.
type MigrationRecord struct {
	// Rank is the migrated thread's rank.
	Rank int32
	// From and To are node names.
	From, To string
	// PC is the step count at capture.
	PC int64
	// FrameBytes is the size of the captured frame image.
	FrameBytes int
	// CaptureTime covers flush + serialize + transfer + ack.
	CaptureTime time.Duration
}

// Node hosts thread slots on one virtual machine. Its migration listener is
// how other nodes' threads arrive.
type Node struct {
	name     string
	plat     *platform.Platform
	nw       transport.Network
	homeAddr string
	gthv     tag.Struct
	opts     dsd.Options

	mu       sync.Mutex
	slots    map[int32]*Slot
	records  []MigrationRecord
	listener transport.Listener
	wg       sync.WaitGroup
}

// Slot is one iso-computing thread slot: rank i here corresponds to rank i
// on every other node.
type Slot struct {
	node *Node
	rank int32
	work Work

	mu      sync.Mutex
	role    Role
	migDest string // requested migration destination ("" = none)

	stateCh chan *wire.Message // incoming state for skeletons
	chkReqs []chan *checkpoint.Checkpoint
	done    chan struct{}
	err     error
}

// NewNode creates a node named name on platform p whose threads reach the
// DSD home at homeAddr over nw.
func NewNode(name string, p *platform.Platform, nw transport.Network, homeAddr string, gthv tag.Struct, opts dsd.Options) *Node {
	return &Node{
		name:     name,
		plat:     p,
		nw:       nw,
		homeAddr: homeAddr,
		gthv:     gthv,
		opts:     opts,
		slots:    make(map[int32]*Slot),
	}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Platform returns the node's virtual platform.
func (n *Node) Platform() *platform.Platform { return n.plat }

// ListenMigrations starts accepting migrating thread states at addr.
func (n *Node) ListenMigrations(addr string) error {
	l, err := n.nw.Listen(addr)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.listener = l
	n.mu.Unlock()
	go n.acceptLoop(l)
	return nil
}

// MigrationAddr returns the address other nodes dial to send threads here.
func (n *Node) MigrationAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr()
}

func (n *Node) acceptLoop(l transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go n.handleMigration(c)
	}
}

func (n *Node) handleMigration(c transport.Conn) {
	defer c.Close()
	frame, err := c.RecvFrame()
	if err != nil {
		return
	}
	msg, err := wire.Decode(frame)
	if err != nil {
		return
	}
	ack := &wire.Message{Kind: wire.KindMigrateAck, Rank: msg.Rank}
	if msg.Kind != wire.KindMigrate || msg.State == nil {
		ack.Err = "migthread: not a migration message"
	} else if err := n.deliverState(msg); err != nil {
		ack.Err = err.Error()
	}
	if out, err := wire.Encode(ack); err == nil {
		_ = c.SendFrame(out)
	}
}

// deliverState enforces iso-computing: the state of thread rank i may only
// land in skeleton slot i.
func (n *Node) deliverState(msg *wire.Message) error {
	n.mu.Lock()
	s := n.slots[msg.Rank]
	n.mu.Unlock()
	if s == nil {
		return fmt.Errorf("migthread: node %s has no slot for rank %d (iso-computing)", n.name, msg.Rank)
	}
	s.mu.Lock()
	role := s.role
	s.mu.Unlock()
	if role != RoleSkeleton {
		return fmt.Errorf("migthread: slot %d on %s is %v, not a skeleton", msg.Rank, n.name, role)
	}
	select {
	case s.stateCh <- msg:
		return nil
	default:
		return fmt.Errorf("migthread: slot %d on %s already has a state in flight", msg.Rank, n.name)
	}
}

func (n *Node) addSlot(rank int32, work Work, role Role) (*Slot, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.slots[rank]; dup {
		return nil, fmt.Errorf("migthread: node %s already has slot %d", n.name, rank)
	}
	s := &Slot{
		node:    n,
		rank:    rank,
		work:    work,
		role:    role,
		stateCh: make(chan *wire.Message, 1),
		done:    make(chan struct{}),
	}
	n.slots[rank] = s
	return s, nil
}

// StartThread launches an active thread (the master or a local slave) that
// begins computing immediately.
func (n *Node) StartThread(rank int32, work Work, role Role) (*Slot, error) {
	if role != RoleMaster && role != RoleLocal {
		return nil, fmt.Errorf("migthread: active threads start as master or local, not %v", role)
	}
	s, err := n.addSlot(rank, work, role)
	if err != nil {
		return nil, err
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(s.done)
		s.err = s.runFresh()
	}()
	return s, nil
}

// StartSkeleton launches a skeleton slot that blocks until a migrating
// state arrives, then computes as a remote thread.
func (n *Node) StartSkeleton(rank int32, work Work) (*Slot, error) {
	s, err := n.addSlot(rank, work, RoleSkeleton)
	if err != nil {
		return nil, err
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(s.done)
		s.err = s.runSkeleton()
	}()
	return s, nil
}

// RequestMigration asks the running thread in slot rank to move to the node
// listening at destAddr at its next safe point.
func (n *Node) RequestMigration(rank int32, destAddr string) error {
	n.mu.Lock()
	s := n.slots[rank]
	n.mu.Unlock()
	if s == nil {
		return fmt.Errorf("migthread: node %s has no slot %d", n.name, rank)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.role {
	case RoleLocal, RoleRemote, RoleMaster:
		s.migDest = destAddr
		return nil
	default:
		return fmt.Errorf("migthread: slot %d is %v; cannot migrate", rank, s.role)
	}
}

// Role returns the slot's current role.
func (n *Node) Role(rank int32) (Role, error) {
	n.mu.Lock()
	s := n.slots[rank]
	n.mu.Unlock()
	if s == nil {
		return 0, fmt.Errorf("migthread: node %s has no slot %d", n.name, rank)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.role, nil
}

// ranksWithRole returns the ranks of slots currently in any of the given
// roles, in ascending rank order.
func (n *Node) ranksWithRole(roles ...Role) []int32 {
	n.mu.Lock()
	slots := make([]*Slot, 0, len(n.slots))
	for _, s := range n.slots {
		slots = append(slots, s)
	}
	n.mu.Unlock()
	var out []int32
	for _, s := range slots {
		s.mu.Lock()
		r := s.role
		s.mu.Unlock()
		for _, want := range roles {
			if r == want {
				out = append(out, s.rank)
				break
			}
		}
	}
	sortRanks(out)
	return out
}

func sortRanks(rs []int32) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j] < rs[j-1]; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// ActiveRanks returns the ranks computing on this node (master, local or
// remote roles) — the candidates a load balancer may move away.
func (n *Node) ActiveRanks() []int32 {
	return n.ranksWithRole(RoleMaster, RoleLocal, RoleRemote)
}

// SkeletonRanks returns the ranks whose slots are idle skeletons — the
// landing sites a load balancer may move threads onto.
func (n *Node) SkeletonRanks() []int32 {
	return n.ranksWithRole(RoleSkeleton)
}

// Migrations returns the records of migrations that departed this node.
func (n *Node) Migrations() []MigrationRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]MigrationRecord, len(n.records))
	copy(out, n.records)
	return out
}

// WaitAll blocks until every slot's goroutine finishes and returns their
// combined errors.
func (n *Node) WaitAll() error {
	n.wg.Wait()
	n.mu.Lock()
	defer n.mu.Unlock()
	var errs []string
	for _, s := range n.slots {
		if s.err != nil {
			errs = append(errs, fmt.Sprintf("rank %d: %v", s.rank, s.err))
		}
	}
	if len(errs) > 0 {
		return errors.New("migthread: " + strings.Join(errs, "; "))
	}
	return nil
}

// Close stops the migration listener.
func (n *Node) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener != nil {
		n.listener.Close()
		n.listener = nil
	}
}

// runFresh drives a thread from Init.
func (s *Slot) runFresh() error {
	th, err := dsd.Dial(s.node.nw, s.node.homeAddr, s.node.plat, s.rank, s.node.gthv, s.node.opts)
	if err != nil {
		return err
	}
	defer th.Close()
	frame, err := NewFrame(s.work.FrameType(), s.node.plat)
	if err != nil {
		return err
	}
	ctx := &Ctx{T: th, frame: frame, slot: s}
	if err := s.work.Init(ctx); err != nil {
		return err
	}
	return s.stepLoop(ctx)
}

// runSkeleton waits for a state, restores it, and computes.
func (s *Slot) runSkeleton() error {
	msg, ok := <-s.stateCh
	if !ok {
		return nil
	}
	frame, err := RestoreFrame(s.work.FrameType(), s.node.plat, msg.Platform, msg.State.FrameTag, msg.State.Frame)
	if err != nil {
		return err
	}
	// Re-register the rank; the source releases it when its DSD
	// connection closes, which races with the ack we already sent.
	var th *dsd.Thread
	deadline := time.Now().Add(dsd.RegisterRetryWindow)
	for {
		th, err = dsd.Dial(s.node.nw, s.node.homeAddr, s.node.plat, s.rank, s.node.gthv, s.node.opts)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("migthread: rank %d never freed at home: %w", s.rank, err)
		}
		time.Sleep(time.Millisecond)
	}
	defer th.Close()

	s.mu.Lock()
	s.role = RoleRemote
	s.mu.Unlock()

	ctx := &Ctx{
		T: th, frame: frame, pc: msg.State.PC, slot: s,
		extra: msg.State.Extra, extraTag: msg.State.ExtraTag, extraSrcPlat: msg.Platform,
	}
	if r, ok := s.work.(Restorer); ok {
		if err := r.Restore(ctx); err != nil {
			return err
		}
	}
	return s.stepLoop(ctx)
}

// stepLoop alternates work steps with migration and checkpoint safe points.
func (s *Slot) stepLoop(ctx *Ctx) error {
	defer func() {
		// Anyone still waiting on a checkpoint gets a definitive no.
		s.mu.Lock()
		reqs := s.chkReqs
		s.chkReqs = nil
		s.mu.Unlock()
		failCheckpoints(reqs)
	}()
	for {
		if err := s.serviceCheckpoints(ctx); err != nil {
			return err
		}
		if dest := s.takeMigrationRequest(); dest != "" {
			if migrated, err := s.migrate(ctx, dest); err != nil {
				return err
			} else if migrated {
				return nil
			}
			// Migration refused (e.g. no skeleton there): keep
			// computing here.
		}
		done, err := s.work.Step(ctx)
		if err != nil {
			return err
		}
		ctx.pc++
		if done {
			if err := ctx.T.Join(); err != nil {
				return err
			}
			s.mu.Lock()
			s.role = RoleDone
			s.mu.Unlock()
			return nil
		}
	}
}

func (s *Slot) takeMigrationRequest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	dest := s.migDest
	s.migDest = ""
	return dest
}

// migrate performs the capture protocol: flush shared writes home, ship
// the frame and PC to the destination skeleton, and retire to stub.
func (s *Slot) migrate(ctx *Ctx, dest string) (bool, error) {
	start := time.Now()
	if err := ctx.T.Flush(); err != nil {
		return false, err
	}
	state := &wire.ThreadState{
		PC:       ctx.pc,
		FrameTag: ctx.frame.TagString(),
		Frame:    ctx.frame.Bytes(),
	}
	if cap, ok := s.work.(Capturer); ok {
		payload, tagStr, err := cap.CaptureExtra(ctx)
		if err != nil {
			return false, err
		}
		state.Extra = payload
		state.ExtraTag = tagStr
	}
	msg := &wire.Message{
		Kind:     wire.KindMigrate,
		Rank:     s.rank,
		Platform: s.node.plat.Name,
		State:    state,
	}
	conn, err := s.node.nw.Dial(dest)
	if err != nil {
		return false, nil // destination unreachable: keep computing
	}
	defer conn.Close()
	frame, err := wire.Encode(msg)
	if err != nil {
		return false, err
	}
	if err := conn.SendFrame(frame); err != nil {
		return false, nil
	}
	ackFrame, err := conn.RecvFrame()
	if err != nil {
		return false, nil
	}
	ack, err := wire.Decode(ackFrame)
	if err != nil || ack.Kind != wire.KindMigrateAck {
		return false, nil
	}
	if ack.Err != "" {
		// Destination refused (iso-computing violation, busy slot):
		// resume locally; the Flush already happened and is harmless.
		return false, nil
	}
	// Committed: the state now lives at dest. Free the rank.
	if err := ctx.T.Close(); err != nil {
		return false, err
	}
	s.mu.Lock()
	s.role = RoleStub
	s.mu.Unlock()
	s.node.mu.Lock()
	s.node.records = append(s.node.records, MigrationRecord{
		Rank:        s.rank,
		From:        s.node.name,
		To:          dest,
		PC:          ctx.pc,
		FrameBytes:  len(state.Frame),
		CaptureTime: time.Since(start),
	})
	s.node.mu.Unlock()
	return true, nil
}
