package ipc

import (
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/stats"
)

// Message is one datagram/record carried by a socket: a byte size for
// cost accounting plus an opaque payload for the simulated application
// logic (real bytes for the RPC layer, structured values elsewhere).
type Message struct {
	Size    int
	Payload any
}

// Socket is one direction of a UNIX-socket connection: a bounded queue
// of messages with kernel-mediated copies on both ends. glibc's rpcgen
// RPC and dIPC's default entry-resolution channel run over these
// (§2.2, §6.2.1). The message queue is a ring, so steady send/receive
// traffic reuses one buffer instead of reallocating.
type Socket struct {
	capacity int // bytes of kernel buffering
	buffered int
	msgs     ring.Deque[Message]
	readers  kernel.TQueue
	writers  kernel.TQueue
}

// Conn is a bidirectional connection (a connected UNIX socket pair).
type Conn struct {
	AtoB *Socket
	BtoA *Socket
}

// NewConn returns a connected socket pair with per-direction buffer
// capacity (defaults to 208 KB like Linux's default wmem).
func NewConn(capacity int) *Conn {
	if capacity <= 0 {
		capacity = 208 << 10
	}
	return &Conn{
		AtoB: &Socket{capacity: capacity},
		BtoA: &Socket{capacity: capacity},
	}
}

// Send copies a message into the socket buffer, blocking while full.
//
//dipcvet:noalloc
func (s *Socket) Send(t *kernel.Thread, msg Message) {
	prm := t.Machine().P
	t.EnterSyscall()
	t.Exec(prm.SockKernel, stats.BlockKernel)
	for s.buffered+msg.Size > s.capacity && s.msgs.Len() > 0 {
		s.writers.BlockOn(t)
	}
	t.Exec(prm.KernelCopy(msg.Size), stats.BlockKernel)
	s.buffered += msg.Size
	s.msgs.PushBack(msg)
	s.readers.WakeOne(nil, t)
	t.ExitSyscall()
}

// Recv removes the next message, blocking while the socket is empty.
//
//dipcvet:noalloc
func (s *Socket) Recv(t *kernel.Thread) Message {
	prm := t.Machine().P
	t.EnterSyscall()
	t.Exec(prm.SockKernel, stats.BlockKernel)
	for s.msgs.Len() == 0 {
		s.readers.BlockOn(t)
	}
	msg := s.msgs.PopFront()
	s.buffered -= msg.Size
	t.Exec(prm.KernelCopy(msg.Size), stats.BlockKernel)
	s.writers.WakeOne(nil, t)
	t.ExitSyscall()
	return msg
}

// Pending returns the number of queued messages.
func (s *Socket) Pending() int { return s.msgs.Len() }
