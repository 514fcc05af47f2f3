package oltp

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// The database tier: a small but genuine storage engine in the shape of
// the DVDStore schema — products searchable by category, customers with
// credentials, and an order log. Query execution does real index work on
// the in-memory structures, touches buffer-pool pages derived from the
// keys it visits, and (in the on-disk configuration) commits orders
// through synchronous log writes.

// Product is one row of the products table.
type Product struct {
	ID       int
	Category int
	Price    int // cents
	Stock    int
}

// Customer is one row of the customers table.
type Customer struct {
	ID     int
	Orders []int
}

// Order is one row of the orders table.
type Order struct {
	ID       int
	Customer int
	Items    []int
	Total    int
}

// DB is the database engine. Tables are value slices indexed by row id
// (order ids start at 1), so loading the store costs a handful of
// allocations rather than one per row.
type DB struct {
	products   []Product
	byCategory [][]int // product ids per category
	customers  []Customer
	orders     []Order

	pool *BufferPool
	disk *Disk
	// inMem marks the tmpfs configuration: no synchronous log writes.
	inMem bool

	prm *Params
}

// NewDB populates the store with nProducts across nCategories and
// nCustomers, like DVDStore's load phase.
func NewDB(m *kernel.Machine, prm *Params, inMem bool) *DB {
	disk := NewDisk(m)
	db := &DB{
		products:   make([]Product, prm.Products),
		byCategory: make([][]int, min(prm.Categories, prm.Products)),
		customers:  make([]Customer, prm.Customers),
		pool:       NewBufferPool(prm.PoolPages, disk, inMem),
		disk:       disk,
		inMem:      inMem,
		prm:        prm,
	}
	for c := range db.byCategory {
		db.byCategory[c] = make([]int, 0, (prm.Products-c+prm.Categories-1)/prm.Categories)
	}
	for i := range db.products {
		p := &db.products[i]
		*p = Product{ID: i, Category: i % prm.Categories, Price: 999 + (i%40)*100, Stock: 100}
		db.byCategory[p.Category] = append(db.byCategory[p.Category], i)
	}
	for i := range db.customers {
		db.customers[i].ID = i
	}
	// The paper measures after a 2-minute warmup (§7.4); model that by
	// pre-warming the buffer pool so steady-state reads hit memory and
	// the on-disk configuration is dominated by transaction commits.
	warm := make([]poolEntry, max(0, min(prm.PageSpace, prm.PoolPages)))
	for i := range warm {
		e := &warm[i]
		e.id = uint64(i)
		db.pool.pages[e.id] = e
		db.pool.pushFront(e)
	}
	return db
}

// product returns the row key selects (keys wrap around the table), or
// nil when the table is empty.
func (db *DB) product(key int) *Product {
	if len(db.products) == 0 {
		return nil
	}
	return &db.products[key%len(db.products)]
}

// customer returns the row key selects, or nil when the table is empty.
func (db *DB) customer(key int) *Customer {
	if len(db.customers) == 0 {
		return nil
	}
	return &db.customers[key%len(db.customers)]
}

// Disk exposes the backing device (for stats).
func (db *DB) Disk() *Disk { return db.disk }

// Pool exposes the buffer pool (for stats).
func (db *DB) Pool() *BufferPool { return db.pool }

// pageOf maps a logical row to a stable page id within the store's page
// space, spreading the table across the simulated on-disk layout.
func (db *DB) pageOf(table uint64, key int) uint64 {
	h := table*0x9e3779b97f4a7c15 + uint64(key)*0x2545f4914f6cdd1d
	return h % uint64(db.prm.PageSpace)
}

// Query is one database request.
type Query struct {
	Kind     QueryKind
	Key      int // category, customer or product id
	Key2     int // secondary key (e.g. item)
	Quantity int
	// Result is filled in when the query runs through Stack.DBHandler,
	// so the result travels back to the interpreter tier in place.
	Result QueryResult
}

// QueryKind selects the query plan.
type QueryKind int

// Query kinds in the DVDStore mix.
const (
	QBrowseCategory QueryKind = iota // top-N products of a category
	QGetProduct                      // single product row
	QLogin                           // credential check
	QOrderHistory                    // customer's past orders
	QAddOrderLine                    // insert one order line
	QCommitOrder                     // transaction commit (log write)
	QUpdateStock                     // stock decrement
)

// QueryResult is a query result: a row count and an approximate wire size,
// which the socket transports copy.
type QueryResult struct {
	Rows  int
	Bytes int
	Data  any
}

// Exec runs one query on the calling thread, charging engine CPU time
// and buffer-pool traffic.
func (db *DB) Exec(t *kernel.Thread, q Query) QueryResult {
	prm := db.prm
	t.ExecUser(prm.DBExecCost) // parse/plan/lock/row work
	switch q.Kind {
	case QBrowseCategory:
		var ids []int
		if len(db.byCategory) > 0 {
			ids = db.byCategory[q.Key%len(db.byCategory)]
		}
		n := min(10, len(ids))
		for i := 0; i < n; i++ {
			db.pool.Access(t, db.pageOf(1, ids[i]), false)
		}
		return QueryResult{Rows: n, Bytes: n * 120}
	case QGetProduct:
		p := db.product(q.Key)
		if p == nil {
			return QueryResult{}
		}
		db.pool.Access(t, db.pageOf(1, p.ID), false)
		return QueryResult{Rows: 1, Bytes: 160, Data: p}
	case QLogin:
		c := db.customer(q.Key)
		if c == nil {
			return QueryResult{}
		}
		db.pool.Access(t, db.pageOf(2, c.ID), false)
		t.ExecUser(prm.DBAuthCost) // password hash check
		return QueryResult{Rows: 1, Bytes: 96, Data: c}
	case QOrderHistory:
		n := 0
		if c := db.customer(q.Key); c != nil {
			n = min(5, len(c.Orders))
			for i := 0; i < n; i++ {
				db.pool.Access(t, db.pageOf(3, c.Orders[len(c.Orders)-1-i]), false)
			}
		}
		return QueryResult{Rows: n, Bytes: n * 140}
	case QAddOrderLine:
		id := len(db.orders) + 1
		db.orders = append(db.orders, Order{ID: id, Customer: q.Key, Items: []int{q.Key2}, Total: q.Quantity})
		if c := db.customer(q.Key); c != nil {
			c.Orders = append(c.Orders, id)
		}
		db.pool.Access(t, db.pageOf(3, id), true)
		return QueryResult{Rows: 1, Bytes: 32, Data: id}
	case QUpdateStock:
		if p := db.product(q.Key); p != nil && p.Stock > 0 {
			p.Stock--
		}
		db.pool.Access(t, db.pageOf(1, q.Key), true)
		return QueryResult{Rows: 1, Bytes: 16}
	case QCommitOrder:
		// Transaction commit: flush the log synchronously. tmpfs makes
		// this a memory operation.
		if !db.inMem {
			db.disk.Write(t)
		} else {
			t.ExecUser(db.prm.DBExecCost / 2)
		}
		return QueryResult{Rows: 0, Bytes: 16}
	default:
		return QueryResult{}
	}
}

// queryCost is a helper used in accounting tests.
func (db *DB) queryCost() sim.Time { return db.prm.DBExecCost }
