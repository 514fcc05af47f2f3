package kernel

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ThreadState is a thread's scheduling state.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadRunning
	ThreadBlocked
	ThreadDead
)

// Thread is a simulated kernel thread. The paper calls application
// threads that cross processes through dIPC "primary threads"; threads
// that only exist to service IPC requests are the "service threads" dIPC
// eliminates (§2.3).
type Thread struct {
	ID   int
	Name string

	m    *Machine
	proc *Process
	sp   *sim.Proc

	state       ThreadState
	cpu         *CPU // CPU it runs on (or is queued on)
	lastCPU     *CPU
	pinned      *CPU
	quantumLeft sim.Time

	schedWaiter  sim.Waiter
	wakeData     any
	blockPending bool // inside Block's arm window
	pendingWake  bool // a Wake arrived during the arm window

	// HW is the CODOMs per-hardware-thread context, carried with the
	// thread by the scheduler (the APL cache is switched lazily, §7.5).
	HW *codoms.ThreadCtx

	// OnFault, when set, handles a protection fault or kill raised on
	// this thread. dIPC installs its KCS unwinder here (§5.2.1). If it
	// returns false (or is nil) the thread dies.
	OnFault func(err error) bool

	// Ext is a slot for higher layers (the dIPC runtime hangs the KCS
	// and per-thread tracking caches here).
	Ext any
}

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// MigrateTo switches the thread's current process: dIPC proxies perform
// an in-place process switch on cross-process calls so that resource
// accounting and the file-descriptor table follow the thread (§6.1.2,
// track_process_call). The cost is charged by the caller (the proxy).
func (t *Thread) MigrateTo(p *Process) {
	delete(t.proc.Threads, t.ID)
	t.proc = p
	p.Threads[t.ID] = t
	if t.cpu != nil && t.cpu.cur == t {
		// The CPU's notion of the current process follows the thread.
		t.cpu.lastProc = p
		t.cpu.lastPT = p.PageTable
	}
}

// State returns the scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// CPU returns the CPU the thread currently occupies (nil if blocked).
func (t *Thread) CPU() *CPU { return t.cpu }

// Pin restricts the thread to one CPU (used by the =CPU / ≠CPU
// micro-benchmark configurations).
func (t *Thread) Pin(c *CPU) { t.pinned = c }

// Pinned returns the CPU the thread is pinned to, or nil.
func (t *Thread) Pinned() *CPU { return t.pinned }

// Spawn creates a thread in process p running fn. If pin is non-nil the
// thread is restricted to that CPU. The thread begins runnable and is
// dispatched by the scheduler like any other.
func (m *Machine) Spawn(p *Process, name string, pin *CPU, fn func(t *Thread)) *Thread {
	m.nextTID++
	t := &Thread{
		ID:     m.nextTID,
		Name:   name,
		m:      m,
		proc:   p,
		pinned: pin,
		HW:     codoms.NewThreadCtx(),
	}
	p.Threads[t.ID] = t
	t.sp = m.Eng.Spawn(name, 0, func(sp *sim.Proc) {
		sp.Ctx = t
		// First scheduling: claim a CPU or queue for one.
		t.state = ThreadRunnable
		t.schedWaiter = sp.PrepareWait()
		t.targetCPU().place(t, nil)
		sp.Wait()
		fn(t)
		t.exit()
	})
	return t
}

// targetCPU picks the CPU a runnable thread should go to. Like CFS's
// wake-affine heuristic, a woken thread prefers its previous CPU (warm
// caches) even when that CPU is moderately busy; this is deliberately
// imperfect and transiently imbalances the machine — the effect the
// paper blames for the idle time of synchronous IPC under load (§7.4).
func (t *Thread) targetCPU() *CPU {
	if t.pinned != nil {
		return t.pinned
	}
	if t.lastCPU != nil && t.lastCPU.runq.Len() <= 2 {
		return t.lastCPU
	}
	return t.m.leastLoadedCPU()
}

// mustBeRunning guards APIs that only the current thread may call.
func (t *Thread) mustBeRunning() {
	if t.state != ThreadRunning || t.cpu == nil || t.cpu.cur != t {
		cur := "<nil>"
		cpu := -1
		if t.cpu != nil {
			cpu = t.cpu.ID
			if t.cpu.cur != nil {
				cur = t.cpu.cur.Name
			}
		}
		panic(fmt.Sprintf("kernel: thread %q used while not running (state=%d cpu=%d cur=%q)",
			t.Name, t.state, cpu, cur))
	}
}

// Exec charges d of computation to block b, advancing simulated time.
// The quantum expires at Exec boundaries: if other threads are queued on
// this CPU the thread round-robins.
func (t *Thread) Exec(d sim.Time, b stats.Block) {
	if d <= 0 {
		return
	}
	t.mustBeRunning()
	for d > 0 {
		slice := d
		if slice > t.quantumLeft {
			slice = t.quantumLeft
		}
		t.sp.Sleep(slice)
		t.cpu.Acct.Add(b, slice)
		d -= slice
		t.quantumLeft -= slice
		if t.quantumLeft <= 0 {
			if t.cpu.runq.Len() > 0 {
				t.Yield()
			} else {
				t.quantumLeft = t.m.P.QuantumDefault
			}
		}
	}
}

// ExecUser charges user-mode computation.
func (t *Thread) ExecUser(d sim.Time) { t.Exec(d, stats.BlockUser) }

// Yield gives up the CPU, requeueing the thread at the tail.
func (t *Thread) Yield() {
	t.mustBeRunning()
	cpu := t.cpu
	t.state = ThreadRunnable
	t.schedWaiter = t.sp.PrepareWait()
	cpu.runq.PushBack(t)
	cpu.switchOut(t)
	t.sp.Wait()
}

// Block parks the thread after running arm, which must arrange for a
// future t.Wake (enqueue on a wait queue, start a device operation,
// arm a timer...). It returns the value passed to Wake.
func (t *Thread) Block(arm func()) any {
	t.mustBeRunning()
	cpu := t.cpu
	// arm runs while t still owns the CPU so that wakeups it issues
	// (e.g. waking a server before sleeping for its reply) attribute
	// IPI time to this thread. A Wake aimed at t while arm is running
	// is recorded and consumed below instead of being lost — the
	// standard "wake beats sleep" rule.
	t.blockPending = true
	if arm != nil {
		arm()
	}
	t.blockPending = false
	if t.pendingWake {
		t.pendingWake = false
		data := t.wakeData
		t.wakeData = nil
		return data
	}
	t.schedWaiter = t.sp.PrepareWait()
	t.state = ThreadBlocked
	t.cpu = nil
	cpu.switchOut(t)
	return t.sp.Wait()
}

// Wake makes a blocked thread runnable, delivering data as the return
// value of its Block. waker attributes IPI costs (nil for devices).
// Waking a non-blocked thread is ignored (like a spurious futex wake).
func (t *Thread) Wake(data any, waker *Thread) bool {
	if t.state != ThreadBlocked {
		if t.blockPending && !t.pendingWake {
			t.pendingWake = true
			t.wakeData = data
			return true
		}
		return false
	}
	t.state = ThreadRunnable
	t.wakeData = data
	t.targetCPU().place(t, waker)
	return true
}

// SleepFor blocks the thread for d without occupying a CPU (client think
// time, device waits).
func (t *Thread) SleepFor(d sim.Time) {
	t.Block(func() {
		t.m.Eng.At(d, func() { t.Wake(nil, nil) })
	})
}

// Syscall models a system call executing fn in kernel mode: trap,
// dispatch trampoline, the body, and the return path. The body charges
// its own kernel time (Fig. 2 block 4).
func (t *Thread) Syscall(fn func()) {
	t.EnterSyscall()
	if fn != nil {
		fn()
	}
	t.ExitSyscall()
}

// EnterSyscall charges the trap and dispatch trampoline of a system
// call. Paired with ExitSyscall it brackets a syscall body written
// inline, which keeps allocation-free hot paths free of closures.
//
//dipcvet:noalloc
func (t *Thread) EnterSyscall() {
	p := t.m.P
	t.Exec(p.SyscallTrap, stats.BlockSyscall)
	t.Exec(p.SyscallDispatch, stats.BlockDispatch)
}

// ExitSyscall charges the return path of a system call opened by
// EnterSyscall.
//
//dipcvet:noalloc
func (t *Thread) ExitSyscall() { t.Exec(t.m.P.SyscallRet, stats.BlockSyscall) }

// exit terminates the thread, releasing its CPU.
func (t *Thread) exit() {
	t.mustBeRunning()
	cpu := t.cpu
	t.state = ThreadDead
	t.cpu = nil
	delete(t.proc.Threads, t.ID)
	cpu.switchOut(t)
}

// Fault raises a protection fault (or kill) on the thread. If an OnFault
// handler recovers, execution continues; otherwise the thread panics the
// simulation — tests treat that as a crashed workload.
func (t *Thread) Fault(err error) {
	// Fault delivery enters the kernel.
	t.Exec(t.m.P.SyscallTrap, stats.BlockSyscall)
	t.Exec(t.m.P.SyscallDispatch, stats.BlockDispatch)
	if t.OnFault != nil && t.OnFault(err) {
		t.Exec(t.m.P.SyscallRet, stats.BlockSyscall)
		return
	}
	panic(fmt.Sprintf("kernel: unhandled fault on thread %q: %v", t.Name, err))
}

// Current returns the kernel thread driving the given sim.Proc (the
// reverse of Thread.sp).
func Current(sp *sim.Proc) *Thread {
	t, _ := sp.Ctx.(*Thread)
	return t
}
