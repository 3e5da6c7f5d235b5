// Fixture a: allocation budgets on annotated hot paths. Unannotated
// functions allocate freely; annotated ones are held to their declared
// site count.
package a

type T struct{ n int }

// cold is unmarked: no budget applies.
func cold(n int) []int {
	return make([]int, n)
}

//hfc:hotpath budget=1
func within(n int) []int {
	return make([]int, n)
}

//hfc:hotpath budget=1
func over(n int) []int { // want `hot path over has 3 potential allocation sites, budget 1`
	xs := make([]int, 0, n)
	xs = append(xs, n)
	p := new(int)
	_ = p
	return xs
}

//hfc:hotpath
func zeroBudget() *T { // want `hot path zeroBudget has 1 potential allocation sites, budget 0`
	return &T{}
}

//hfc:hotpath budget=0
func concat(a, b string) string { // want `hot path concat has 1 potential allocation sites, budget 0`
	return a + b
}

//hfc:hotpath budget=0
func convert(b []byte) string { // want `hot path convert has 1 potential allocation sites, budget 0`
	return string(b)
}

//hfc:hotpath budget=0
func boxes(v int, sink func(any)) { // want `hot path boxes has 1 potential allocation sites, budget 0`
	sink(v)
}

//hfc:hotpath budget=0
func noBox(p *T, sink func(any)) {
	sink(p) // pointer-shaped: fits the interface word, no allocation
}

//hfc:hotpath budget=0
func values(ts []T, arr *[2]int, n int) T { // struct and array literals are stored in place
	ts[0] = T{n: n}
	*arr = [2]int{n, n}
	return T{n: n}
}

//hfc:hotpath budget=0
func literals(n int) ([]int, map[int]T, [1]*T) { // want `hot path literals has 3 potential allocation sites, budget 0`
	return []int{n}, map[int]T{n: {n: n}}, [1]*T{&T{n: n}} // {n: n} shares the map's allocation
}

//hfc:hotpath budget=0
func boxed(n int, sink func(any)) any { // want `hot path boxed has 4 potential allocation sites, budget 0`
	sink(T{n: n})
	var x any = T{n: n}
	x = [1]int{n}
	_ = x
	return T{n: n}
}

//hfc:hotpath budget=0
func closureReturn(n int) any { // want `hot path closureReturn has 1 potential allocation sites, budget 0`
	f := func() T { return T{n: n} } // returns into the closure's T, no boxing
	return f()
}

//hfc:hotpath budget=0
func pooled() []byte {
	//hfcvet:ignore hotalloc fixture: the buffer comes from a pool in the real caller
	buf := make([]byte, 64)
	return buf
}

//hfc:hotpath budget=lots
func malformed() {} // want `malformed hot-path annotation`
