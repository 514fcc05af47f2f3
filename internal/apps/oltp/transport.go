package oltp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ipc"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Handler processes one inter-tier call and returns the result plus its
// wire size (for the copying transports).
type Handler func(t *kernel.Thread, op string, payload any) (any, int)

// Transport abstracts how one tier invokes the next: a plain function
// call (Ideal), a dIPC proxy (dIPC), or UNIX sockets between worker
// pools (Linux).
type Transport interface {
	// TryCall performs one synchronous request and returns the result.
	// It surfaces dead callees, injected faults, and in-band remote
	// errors as an error; with no fault site, no serving process to
	// watch and no RemoteError in flight the error is always nil, and
	// the call charges only the transport's own cost.
	TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error)
	// Calls returns how many calls went through (for the §7.5
	// calls-per-operation accounting).
	Calls() uint64
	// Lookahead is the minimum scheduling-visible delay of one call —
	// the figure a sharded run may declare as sim.Cluster link
	// lookahead. All three intra-machine transports return 0: even the
	// socket path can deliver to a service thread at the same simulated
	// instant (Submit/WakeOne with zero delay), and dIPC's whole thesis
	// is erasing cross-domain latency. Zero lookahead means the tiers of
	// one OLTP machine must share a shard; only inter-machine transports
	// (e.g. netpipe's NIC wire latency) give the cluster real slack.
	Lookahead() sim.Time
}

// DirectTransport is the Ideal configuration's path: a function call
// into the co-located component.
type DirectTransport struct {
	H     Handler
	calls uint64
	// Faults, when set, draws a per-call verdict before each TryCall
	// (nil for fault-free runs).
	Faults *faults.CallSite
}

// TryCall implements Transport: a function call into the handler. An
// injected fault or an in-band RemoteError from the handler comes back
// as an error.
//
//dipcvet:noalloc
func (d *DirectTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	d.calls++
	if err := injectFault(t, d.Faults); err != nil {
		return nil, err
	}
	t.Exec(t.Machine().P.FuncCall, stats.BlockUser)
	out, _ := d.H(t, op, payload)
	return unwrapRemote(out)
}

// Calls implements Transport.
func (d *DirectTransport) Calls() uint64 { return d.calls }

// Lookahead implements Transport: a function call is instantaneous in
// scheduling terms.
func (d *DirectTransport) Lookahead() sim.Time { return 0 }

// SockTransport is the Linux baseline: requests flow through a UNIX
// socket to a pool of service threads in the target process, and
// responses come back on a per-caller reply socket — the paper's §2.3
// "false concurrency".
type SockTransport struct {
	prm     *Params
	req     *ipc.Socket
	h       Handler
	callers map[*kernel.Thread]*sockReq
	calls   uint64
	// Faults, when set, draws a per-call verdict before each TryCall.
	Faults *faults.CallSite
	// Proc is the serving process; when set and dead, TryCall fails fast
	// (connection refused) instead of queueing to a pool that will never
	// accept.
	Proc *kernel.Process
}

// sockReq is the wire request. Each calling thread owns one, created
// with its reply socket on the thread's first call and reused for every
// later one: calls are synchronous per thread — the caller blocks on
// reply until a worker has read the request and answered.
type sockReq struct {
	op      string
	payload any
	reply   *ipc.Socket
}

// NewSockTransport builds the socket endpoint for handler h.
func NewSockTransport(prm *Params, h Handler) *SockTransport {
	return &SockTransport{
		prm:     prm,
		req:     ipc.NewConn(0).AtoB,
		h:       h,
		callers: make(map[*kernel.Thread]*sockReq),
	}
}

// callerReq returns t's request record.
func (s *SockTransport) callerReq(t *kernel.Thread) *sockReq {
	if r := s.callers[t]; r != nil {
		return r
	}
	r := &sockReq{reply: ipc.NewConn(0).AtoB}
	s.callers[t] = r
	return r
}

// TryCall implements Transport: a dead serving process refuses the
// connection, injected faults surface as errors, and a handler's in-band
// RemoteError is unwrapped. Requests already accepted before a kill are
// still answered — worker threads drain in flight, like a TCP stack
// flushing established connections while refusing new ones.
//
//dipcvet:noalloc
func (s *SockTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	s.calls++
	if s.Proc != nil && s.Proc.Dead {
		return nil, connectErr(s.Proc)
	}
	if err := injectFault(t, s.Faults); err != nil {
		return nil, err
	}
	return unwrapRemote(s.roundTrip(t, op, payload, reqBytes))
}

// roundTrip sends one request from t's record and waits for the reply.
//
//dipcvet:noalloc
func (s *SockTransport) roundTrip(t *kernel.Thread, op string, payload any, reqBytes int) any {
	r := s.callerReq(t)
	r.op, r.payload = op, payload
	t.ExecUser(s.prm.ProtoMarshal) // marshal request
	s.req.Send(t, ipc.Message{Size: reqBytes, Payload: r})
	msg := r.reply.Recv(t)
	t.ExecUser(s.prm.ProtoMarshal) // unmarshal response
	return msg.Payload
}

// connectErr is the cold connection-refused error of a dead serving
// process.
func connectErr(p *kernel.Process) error {
	return fmt.Errorf("oltp: connect %s: %w", p.Name, faults.ErrDead)
}

// Calls implements Transport.
func (s *SockTransport) Calls() uint64 { return s.calls }

// Lookahead implements Transport: socket cost is CPU time (copies,
// wakeups, scheduling), not a modeled propagation delay — a message can
// reach the service pool at the same simulated instant it was sent.
func (s *SockTransport) Lookahead() sim.Time { return 0 }

// Worker runs one service thread: the per-tier thread pools of the
// Linux configuration call this in a loop.
func (s *SockTransport) Worker(t *kernel.Thread) {
	for {
		msg := s.req.Recv(t)
		r := msg.Payload.(*sockReq)
		t.ExecUser(s.prm.ProtoMarshal) // unmarshal + demultiplex
		out, respBytes := s.h(t, r.op, r.payload)
		t.ExecUser(s.prm.ProtoMarshal) // marshal response
		r.reply.Send(t, ipc.Message{Size: respBytes, Payload: out})
	}
}

// DIPCTransport bridges tiers with dIPC proxies: the calling thread
// crosses into the target process in place.
type DIPCTransport struct {
	entries map[string]*core.ImportedEntry
	// args holds each calling thread's argument record, reused for
	// every call it makes: the call is synchronous, and handlerEntry
	// writes its result back into the same record.
	args  map[*kernel.Thread]*core.Args
	calls uint64
	// runtimeHint lets the web workers enter their process code domain
	// before calling (the CODOMs subject comes from the instruction
	// pointer).
	runtimeHint *core.Runtime
	// Faults, when set, draws a per-call verdict before each TryCall.
	Faults *faults.CallSite
}

// NewDIPCTransport wraps resolved entries keyed by operation name.
func NewDIPCTransport(entries map[string]*core.ImportedEntry) *DIPCTransport {
	return &DIPCTransport{entries: entries, args: make(map[*kernel.Thread]*core.Args)}
}

// callArgs returns t's argument record, reset to carry payload.
//
//dipcvet:noalloc
func (d *DIPCTransport) callArgs(t *kernel.Thread, payload any) *core.Args {
	a := d.args[t]
	if a == nil {
		a = d.newArgs(t)
	}
	*a = core.Args{Data: payload, StackBytes: 64}
	return a
}

// newArgs creates t's argument record on its first call.
func (d *DIPCTransport) newArgs(t *kernel.Thread) *core.Args {
	a := &core.Args{}
	d.args[t] = a
	return a
}

// TryCall implements Transport: dIPC's own error path (a dead callee
// fails the proxy's liveness check) propagates as an error, so chaos
// runs exercise the same descriptor revalidation the core layer
// implements.
//
//dipcvet:noalloc
func (d *DIPCTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	d.calls++
	if err := injectFault(t, d.Faults); err != nil {
		return nil, err
	}
	ent, ok := d.entries[op]
	if !ok {
		return nil, noEntryErr(op)
	}
	out, err := ent.Call(t, d.callArgs(t, payload))
	if err != nil {
		return nil, callErr(op, err)
	}
	if out == nil {
		return nil, nil
	}
	return unwrapRemote(out.Data)
}

// The cold failure paths of the dIPC call.
func noEntryErr(op string) error { return fmt.Errorf("oltp: no dIPC entry for %q", op) }

func callErr(op string, err error) error { return fmt.Errorf("oltp: dIPC call %q: %w", op, err) }

// Calls implements Transport.
func (d *DIPCTransport) Calls() uint64 { return d.calls }

// Lookahead implements Transport: dIPC's direct domain crossing has, by
// design, no scheduling-visible latency at all (§3 — the calling thread
// crosses in place).
func (d *DIPCTransport) Lookahead() sim.Time { return 0 }

// handlerEntry adapts a Handler into a dIPC entry function.
func handlerEntry(h Handler, op string) core.Func {
	return (&entryFunc{h: h, op: op}).call
}

// entryFunc is the dIPC entry function of one handler operation.
type entryFunc struct {
	h  Handler
	op string
}

// call runs the handler and returns its result in the caller's own
// argument record — an entry may echo its input (core.Proxy.invoke),
// and the caller reads the result before its next call.
//
//dipcvet:noalloc
func (e *entryFunc) call(t *kernel.Thread, in *core.Args) *core.Args {
	in.Data, _ = e.h(t, e.op, in.Data)
	return in
}
