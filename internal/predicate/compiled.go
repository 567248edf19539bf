package predicate

import (
	"github.com/scorpiondb/scorpion/internal/relation"
)

// scanBlock caps the rows one Scan callback covers, so the selection
// buffer stays a few KiB however long a provenance run is.
const scanBlock = 1024

// Compiled is a predicate bound to one table's columns. Compiling resolves
// each clause once: a continuous clause becomes its column slice plus
// bounds, a discrete clause its code column plus a membership bitmap over
// the column's dictionary codes. Evaluation then never re-checks the
// schema, copies a Clause or binary-searches a code list per row.
//
// Every predicate evaluation in the system — Match, Eval, Count,
// ContainedIn, the influence scorer and the sampling estimators — runs
// through Compiled.
//
// Match may be called concurrently; Scan reuses an internal selection
// buffer, so one Compiled value must not be scanned from two goroutines at
// once.
type Compiled struct {
	terms []term
	n     int      // rows in the compiled table
	words []uint64 // backing storage of the discrete terms' bitmaps
	sel   []int    // Scan's selection buffer
}

// term is one compiled clause. floats is non-nil exactly for continuous
// clauses.
type term struct {
	floats []float64
	lo, hi float64
	hiInc  bool
	codes  []int32
	member []uint64
}

// Compile binds p to t's columns. The result is valid for t only.
func (p Predicate) Compile(t *relation.Table) *Compiled {
	c := new(Compiled)
	c.Load(p, t)
	return c
}

// Load recompiles c for predicate p over table t, reusing c's storage —
// a caller that evaluates many predicates keeps one Compiled and pays no
// allocation once its buffers have grown.
func (c *Compiled) Load(p Predicate, t *relation.Table) {
	c.n = t.NumRows()
	words := 0
	for _, cl := range p.clauses {
		if cl.Kind == relation.Discrete {
			words += (t.Dict(cl.Col).Len() + 63) / 64
		}
	}
	if cap(c.words) < words {
		c.words = make([]uint64, words)
	}
	c.words = c.words[:words]
	clear(c.words)
	free := c.words
	c.terms = c.terms[:0]
	for _, cl := range p.clauses {
		if cl.Kind == relation.Continuous {
			c.terms = append(c.terms, term{floats: t.Floats(cl.Col), lo: cl.Lo, hi: cl.Hi, hiInc: cl.HiInc})
			continue
		}
		card := t.Dict(cl.Col).Len()
		nw := (card + 63) / 64
		member := free[:nw:nw]
		free = free[nw:]
		for _, v := range cl.Values {
			// A code outside the dictionary labels no row, so it sets no bit.
			if v >= 0 && int(v) < card {
				member[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		c.terms = append(c.terms, term{codes: t.Codes(cl.Col), member: member})
	}
}

// admits is the clause test. A range admits v when !(v < lo) and v is
// below hi (or equal to it when hiInc): NaN fails the upper comparison, so
// it matches no range clause.
func (t *term) admits(r int) bool {
	if t.floats != nil {
		v := t.floats[r]
		return !(v < t.lo) && (v < t.hi || (t.hiInc && v == t.hi))
	}
	code := uint(t.codes[r])
	w := code >> 6
	return w < uint(len(t.member)) && t.member[w]&(1<<(code&63)) != 0
}

// Match reports whether row r satisfies the predicate.
func (c *Compiled) Match(r int) bool {
	for i := range c.terms {
		if !c.terms[i].admits(r) {
			return false
		}
	}
	return true
}

// filter leaves in c.sel the rows of [lo, hi) the predicate admits, in
// ascending order: the first clause scans the block, every later clause
// narrows the survivors in place.
func (c *Compiled) filter(lo, hi int) {
	sel := c.sel[:0]
	if len(c.terms) == 0 {
		for r := lo; r < hi; r++ {
			sel = append(sel, r)
		}
		c.sel = sel
		return
	}
	first := &c.terms[0]
	for r := lo; r < hi; r++ {
		if first.admits(r) {
			sel = append(sel, r)
		}
	}
	for i := 1; i < len(c.terms) && len(sel) > 0; i++ {
		t := &c.terms[i]
		kept := sel[:0]
		for _, r := range sel {
			if t.admits(r) {
				kept = append(kept, r)
			}
		}
		sel = kept
	}
	c.sel = sel
}

// Scan walks rows (the whole table when nil) run by run, in blocks of at
// most scanBlock consecutive rows, and calls fn with each block's bounds
// [lo, hi) and the block's matching rows in ascending order. matched is
// only valid during the call.
func (c *Compiled) Scan(rows *relation.RowSet, fn func(lo, hi int, matched []int)) {
	run := func(lo, hi int) {
		for lo < hi {
			end := min(hi, lo+scanBlock)
			c.filter(lo, end)
			fn(lo, end, c.sel)
			lo = end
		}
	}
	if rows == nil {
		run(0, c.n)
		return
	}
	rows.ForEachRun(run)
}
