package oltp

import (
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
)

// OpKind is one DVDStore operation type.
type OpKind int

// Operation kinds.
const (
	OpBrowse OpKind = iota
	OpLogin
	OpPurchase
)

// String names the operation.
func (k OpKind) String() string {
	switch k {
	case OpBrowse:
		return "browse"
	case OpLogin:
		return "login"
	case OpPurchase:
		return "purchase"
	default:
		return "unknown"
	}
}

// Operation is one client request with its pre-drawn query plan.
type Operation struct {
	Kind    OpKind
	Queries []Query
}

// GenOp draws one operation from the DVDStore-like mix.
func GenOp(rng *sim.Rand, prm *Params) *Operation {
	op := &Operation{}
	op.Draw(rng, prm)
	return op
}

// Draw redraws op in place from the DVDStore-like mix, reusing the
// capacity of its Queries, so a closed-loop client can recycle one
// Operation.
func (op *Operation) Draw(rng *sim.Rand, prm *Params) {
	op.Queries = op.Queries[:0]
	w := rng.Intn(prm.BrowseWeight + prm.LoginWeight + prm.PurchaseWeight)
	switch {
	case w < prm.BrowseWeight:
		op.Kind = OpBrowse
		cat := rng.Intn(prm.Categories)
		op.Queries = append(op.Queries, Query{Kind: QBrowseCategory, Key: cat})
		for i := 0; i < prm.BrowseGets; i++ {
			op.Queries = append(op.Queries, Query{Kind: QGetProduct, Key: rng.Intn(prm.Products)})
		}
	case w < prm.BrowseWeight+prm.LoginWeight:
		op.Kind = OpLogin
		cust := rng.Intn(prm.Customers)
		op.Queries = append(op.Queries, Query{Kind: QLogin, Key: cust})
		for i := 0; i < prm.LoginHistory; i++ {
			op.Queries = append(op.Queries, Query{Kind: QOrderHistory, Key: cust})
		}
	default:
		op.Kind = OpPurchase
		cust := rng.Intn(prm.Customers)
		op.Queries = append(op.Queries, Query{Kind: QLogin, Key: cust})
		for i := 0; i < prm.PurchaseGets; i++ {
			op.Queries = append(op.Queries, Query{Kind: QGetProduct, Key: rng.Intn(prm.Products)})
		}
		for i := 0; i < prm.PurchaseLines; i++ {
			item := rng.Intn(prm.Products)
			op.Queries = append(op.Queries,
				Query{Kind: QAddOrderLine, Key: cust, Key2: item, Quantity: 1},
				Query{Kind: QUpdateStock, Key: item})
		}
		op.Queries = append(op.Queries, Query{Kind: QCommitOrder, Key: cust})
	}
}

// request is one in-flight client request crossing the ingress.
type request struct {
	op      *Operation
	started sim.Time
	done    sim.Waiter
	// err is the failure outcome reported back to the client; only the
	// fault-aware runners (RunChainFaults) ever set it.
	err error
}

// Ingress models the HTTP front door: clients live off-machine (the
// DVDStore driver host), so submission costs nothing locally; the web
// tier's accept/read/write syscalls are charged in full.
type Ingress struct {
	prm     *Params
	pending ring.Deque[*request]
	waiters kernel.TQueue
}

// NewIngress builds the front door.
func NewIngress(prm *Params) *Ingress { return &Ingress{prm: prm} }

// Submit delivers a client request (called from a client sim.Proc).
func (in *Ingress) Submit(req *request) {
	if in.waiters.WakeOne(req, nil) {
		return
	}
	in.pending.PushBack(req)
}

// Recv blocks a web worker until a request arrives, charging the
// accept+read path.
func (in *Ingress) Recv(t *kernel.Thread) *request {
	var req *request
	t.Syscall(func() {
		p := t.Machine().P
		t.Exec(p.SockKernel+p.KernelCopy(in.prm.IngressReq), stats.BlockKernel)
		if in.pending.Len() > 0 {
			req = in.pending.PopFront()
			return
		}
		req = in.waiters.BlockOn(t).(*request)
	})
	return req
}

// Reply sends the response page back to the client.
func (in *Ingress) Reply(t *kernel.Thread, req *request) {
	t.Syscall(func() {
		p := t.Machine().P
		t.Exec(p.SockKernel+p.KernelCopy(in.prm.IngressResp), stats.BlockKernel)
	})
	req.done.Wake(0, nil)
}

// Inbox is a machine's request inbox for multi-machine runners: an
// arriving request ID hands off directly to a waiting worker thread or
// queues until one asks. Delivery is free (the NIC model charges the
// wire); the queue is a ring, so a steady stream never reallocates it.
type Inbox struct {
	pending ring.Deque[uint64]
	waiters kernel.TQueue
}

// Submit delivers id, waking the longest-waiting worker if any.
func (in *Inbox) Submit(id uint64) {
	if in.waiters.WakeOne(id, nil) {
		return
	}
	in.pending.PushBack(id)
}

// Recv returns the oldest queued ID, blocking t until one arrives.
func (in *Inbox) Recv(t *kernel.Thread) uint64 {
	if in.pending.Len() > 0 {
		return in.pending.PopFront()
	}
	return in.waiters.BlockOn(t).(uint64)
}
