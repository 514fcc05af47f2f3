// Package noalloctest exercises every noalloc finding and exemption.
package noalloctest

import (
	"errors"
	"fmt"
)

type box struct {
	vals []int
	m    map[string]int
}

// fmtAndErrors: message construction is the classic hot-path allocation.
//
//dipcvet:noalloc
func fmtAndErrors(n int) error {
	s := fmt.Sprintf("n=%d", n) // want `call to fmt.Sprintf allocates` `packs 1 variadic` `boxes int`
	_ = s
	_ = errors.Is(nil, nil)   // inspection, not construction: not flagged
	return errors.New("boom") // want `call to errors.New allocates`
}

// constructs: make/new/composite literals/append/closures/go.
//
//dipcvet:noalloc
func constructs(b *box) {
	_ = make([]int, 4)         // want `make allocates`
	_ = new(box)               // want `new allocates`
	_ = &box{}                 // want `&composite literal allocates`
	_ = []int{1, 2}            // want `slice literal allocates`
	_ = map[string]int{}       // want `map literal allocates`
	b.vals = append(b.vals, 1) // want `append may grow`
	f := func() {}             // want `function literal`
	f()
	go f() // want `go statement allocates`

	b.m["k"] = 1 // want `map write may grow`

	// Pooled append: annotated, not flagged. (Note a trailing directive
	// also covers the following source line.)
	b.vals = append(b.vals, 2) //dipcvet:alloc-ok ring reuses pooled capacity in steady state
}

// strConcat: string building allocates.
//
//dipcvet:noalloc
func strConcat(a, b string, bs []byte) string {
	s := a + b      // want `string concatenation allocates`
	s += a          // want `string concatenation allocates`
	t := string(bs) // want `to-string conversion copies`
	u := []byte(a)  // want `string-to-slice conversion copies`
	_ = u
	const prefix = "x" + "y" // constant folding is free
	return s + t             // want `string concatenation allocates`
}

func sink(v any)      {}
func sinks(vs ...any) {}
func take(p *box)     {}
func giveIface() any  { return nil }

// boxing: concrete non-pointer values crossing into interfaces.
//
//dipcvet:noalloc
func boxing(b *box, n int, e error) any {
	sink(n)  // want `boxes int into any`
	sink(b)  // pointers fit the data word: not flagged
	sink(e)  // interface-to-interface: not flagged
	sink(42) // constants are compiler statics: not flagged
	sink(nil)
	sinks(n, b)   // want `boxes int into any` `packs 2 variadic`
	var a any = n // want `boxes int into any`
	_ = a
	a = any(n) // want `boxes int into any`
	_ = a
	return n // want `boxes int into any`
}

// caller has the shape of a transport's fault-aware call.
type caller interface {
	TryCall(op string) (any, error)
}

func mustCall(out any, err error) any { return out }
func count() (int, error)             { return 0, nil }

// tuples: f(g()) spreads g's results over f's parameters, and each
// result is judged against its own parameter, not the whole tuple.
//
//dipcvet:noalloc
func tuples(c caller) any {
	out := mustCall(c.TryCall("op")) // interface results into interface params: not flagged
	mustCall(count())                // want `argument boxes int into any`
	return out
}

// cold is unmarked: nothing here is flagged even though it allocates.
func cold(n int) error {
	return fmt.Errorf("all of this is fine: %d", n)
}

// coldHelperPattern shows the sanctioned shape: the marked hot function
// delegates construction to an unmarked cold helper on the error branch.
//
//dipcvet:noalloc
func coldHelperPattern(b *box, bad bool) error {
	if bad {
		return cold(1) // calls are not followed: intraprocedural by design
	}
	return nil
}
