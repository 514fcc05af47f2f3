package oltp

import (
	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/sim"
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

// request is one in-flight client request crossing the gateway.
type request struct {
	op      *Operation
	started sim.Time
	done    sim.Waiter
	// err is the outcome reported back to the client. Only the Gateway
	// sets it: Reply records the chain's in-band failure, a shed records
	// the rejection.
	err error
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
