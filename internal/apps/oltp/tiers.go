package oltp

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Stack wires the three tiers together over whatever transports the
// configuration selects. The handler methods are the tier application
// logic and are identical in every configuration — exactly like the
// paper's Ideal setup, whose "core implementation is thus identical to
// the baseline, but ... stripped from unnecessary concurrency across
// processes, IPC calls and the glue code needed to manage IPC" (§7.4).
type Stack struct {
	Prm *Params
	DB  *DB

	// PHPT carries web->php calls; DBT carries php->db calls.
	PHPT Transport
	DBT  Transport
}

// DBHandler is the database tier's request entry: execute a query or
// fetch a result set. Both take a pointer into the operation's own
// query plan: exec stores the result in the query's Result slot and
// returns the same pointer, which the caller passes back to fetch.
// Nothing is boxed on the way.
//
//dipcvet:noalloc
func (s *Stack) DBHandler(t *kernel.Thread, op string, payload any) (any, int) {
	switch op {
	case "exec":
		q := payload.(*Query)
		q.Result = s.DB.Exec(t, *q)
		return q, maxInt(64, q.Result.Bytes)
	case "fetch":
		t.ExecUser(s.Prm.DBFetchCost)
		if q, ok := payload.(*Query); ok {
			return q, maxInt(64, q.Result.Bytes)
		}
		return nil, 64
	default:
		panicUnknownOp("db", op)
		return nil, 0
	}
}

// PHPHandler is the interpreter tier's request entry: FastCGI-style
// begin/run/end. run interprets the page script, issuing exec+fetch
// pairs against the database for every query in the operation.
//
//dipcvet:noalloc
func (s *Stack) PHPHandler(t *kernel.Thread, op string, payload any) (any, int) {
	switch op {
	case "begin":
		t.ExecUser(s.Prm.PHPBase / 16) // request setup, env parsing
		return nil, 64
	case "params":
		t.ExecUser(s.Prm.PHPBase / 24) // FastCGI params records
		return nil, 64
	case "stdout":
		t.ExecUser(s.Prm.PHPBase / 24) // one response chunk flush
		return nil, s.Prm.RespWebPHP / 2
	case "run":
		req := payload.(*Operation)
		t.ExecUser(s.Prm.PHPBase)
		for i := range req.Queries {
			t.ExecUser(s.Prm.PHPPerQuery)
			r := mustCall(s.DBT.TryCall(t, "exec", &req.Queries[i], s.Prm.ReqQuery))
			// Multi-row results take extra cursor fetches.
			rows := 1
			if q, ok := r.(*Query); ok {
				rows = q.Result.Rows
			}
			fetches := 1
			if rows > 4 {
				fetches = 2
			}
			for f := 0; f < fetches; f++ {
				mustCall(s.DBT.TryCall(t, "fetch", r, 64))
			}
		}
		return nil, s.Prm.RespWebPHP
	case "end":
		t.ExecUser(s.Prm.PHPBase / 32) // request teardown
		return nil, 64
	default:
		panicUnknownOp("php", op)
		return nil, 0
	}
}

// panicUnknownOp is the cold failure path of the tier handlers.
func panicUnknownOp(tier, op string) { panic(fmt.Sprintf("oltp: unknown %s op %q", tier, op)) }

// mustCall unwraps the result of a call the fault-free stack expects to
// succeed: none of its transports has a fault site or a watched serving
// process, so an error here is a wiring bug.
func mustCall(out any, err error) any {
	if err != nil {
		panic(fmt.Sprintf("oltp: fault-free call failed: %v", err))
	}
	return out
}

// WebHandle serves one client request on a web worker thread: parse,
// drive the interpreter through the FastCGI-ish begin/run/end exchange,
// assemble the response.
func (s *Stack) WebHandle(t *kernel.Thread, req *request) {
	t.ExecUser(s.Prm.WebParse)
	// The FastCGI exchange: begin-request, params records, the script
	// body, streamed stdout chunks, end-request.
	mustCall(s.PHPT.TryCall(t, "begin", nil, 256))
	mustCall(s.PHPT.TryCall(t, "params", nil, 512))
	mustCall(s.PHPT.TryCall(t, "run", req.op, s.Prm.ReqWebPHP))
	mustCall(s.PHPT.TryCall(t, "stdout", nil, 64))
	mustCall(s.PHPT.TryCall(t, "stdout", nil, 64))
	mustCall(s.PHPT.TryCall(t, "end", nil, 64))
	t.ExecUser(s.Prm.WebRespond)
}

// CallsPerOpEstimate returns the expected cross-tier calls per
// operation for the configured mix: six FastCGI exchanges plus, per
// query, one execute and one or two cursor fetches.
func (s *Stack) CallsPerOpEstimate() float64 {
	p := s.Prm
	total := p.BrowseWeight + p.LoginWeight + p.PurchaseWeight
	browseQ := 1 + p.BrowseGets
	loginQ := 1 + p.LoginHistory
	purchaseQ := 1 + p.PurchaseGets + 2*p.PurchaseLines + 1
	avgQ := (float64(p.BrowseWeight)*float64(browseQ) +
		float64(p.LoginWeight)*float64(loginQ) +
		float64(p.PurchaseWeight)*float64(purchaseQ)) / float64(total)
	return 6 + 2.1*avgQ
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// opWorkEstimate is a rough per-operation CPU time, used by tests to
// sanity-check throughput scaling.
func (s *Stack) opWorkEstimate() sim.Time {
	p := s.Prm
	avgQ := (s.CallsPerOpEstimate() - 3) / 2
	return p.WebParse + p.WebRespond + p.PHPBase +
		sim.Time(avgQ)*(p.PHPPerQuery+p.DBExecCost+p.DBFetchCost)
}
