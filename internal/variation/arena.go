package variation

import "sync"

// arenaClasses are the slab size classes in terms. An arena grows
// geometrically through the classes: the first slab is tiny (a handful of
// short forms fit), each subsequent slab takes the next class, and
// long-lived DP workers settle on the max class. Small frontiers therefore
// reserve kilobytes instead of the former fixed 16384-term (~256 KiB)
// worst case, while big runs amortize exactly as before.
var arenaClasses = [...]int{64, 256, 1024, 4096, 16384}

// arenaSlabTerms is the largest slab class; requests beyond it get a
// dedicated, never-pooled slab.
const arenaSlabTerms = 16384

// slabPools recycles standard-size slabs per class across Arenas (and
// therefore across runs). Term contains no pointers, so pooled slabs cost
// the GC nothing while parked.
var slabPools [len(arenaClasses)]sync.Pool

func init() {
	for i := range slabPools {
		sz := arenaClasses[i]
		slabPools[i].New = func() any {
			s := make([]Term, sz)
			return &s
		}
	}
}

// Arena is a slab allocator for the Term storage behind Forms. One Arena
// belongs to exactly one goroutine (no internal locking); every Form built
// through the *In operations (AXPYIn, ScaleIn, MinIn, ...) borrows its
// Terms from the Arena's current slab instead of the heap.
//
// Ownership rules:
//
//   - Forms built from an Arena are valid only until Release is called.
//   - Release returns the standard-size slabs to a shared pool for reuse;
//     call it only when no Form referencing the Arena can be used again.
//     Any Form that outlives the run must be detached with Clone first.
//   - The zero number of retained slabs is restored by Release; an Arena
//     must not be used after Release.
type Arena struct {
	slabs []*[]Term
	cur   []Term
	off   int
	terms int64
	bytes int64
	// nextClass indexes arenaClasses for the next slab grab (geometric
	// growth, saturating at the max class).
	nextClass int
}

// NewArena returns an empty arena. The first slab is taken lazily.
func NewArena() *Arena { return &Arena{} }

// take reserves room for n terms and returns a zero-length slice with
// capacity n. Appends within that capacity stay inside the slab. A nil
// arena allocates from the heap.
func (a *Arena) take(n int) []Term {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]Term, 0, n)
	}
	if a.off+n > len(a.cur) {
		if n > arenaSlabTerms {
			// Oversized request: dedicated slab, never pooled.
			s := make([]Term, n)
			a.slabs = append(a.slabs, &s)
			a.cur = s
		} else {
			cls := a.nextClass
			for arenaClasses[cls] < n {
				cls++
			}
			s := slabPools[cls].Get().(*[]Term)
			a.slabs = append(a.slabs, s)
			a.cur = *s
			if cls < len(arenaClasses)-1 {
				a.nextClass = cls + 1
			} else {
				a.nextClass = cls
			}
		}
		a.off = 0
		a.bytes += int64(len(a.cur)) * int64(termBytes)
	}
	s := a.cur[a.off : a.off : a.off+n]
	a.off += n
	a.terms += int64(n)
	return s
}

// giveBack returns the unused tail of the most recent take. Valid only
// immediately after the take, before any further allocation.
func (a *Arena) giveBack(n int) {
	a.off -= n
	a.terms -= int64(n)
}

// trim gives back the unused capacity of s, which must be the most recent
// take, and returns s unchanged.
func (a *Arena) trim(s []Term) []Term {
	if a != nil {
		a.giveBack(cap(s) - len(s))
	}
	return s
}

// termBytes is sizeof(Term) without importing unsafe.
const termBytes = 4 /* SourceID */ + 4 /* padding */ + 8 /* Coef */

// Terms returns the number of terms handed out since creation.
func (a *Arena) Terms() int64 { return a.terms }

// Bytes returns the total slab bytes reserved by the arena.
func (a *Arena) Bytes() int64 { return a.bytes }

// UsedBytes returns the bytes of terms actually handed out — the live
// occupancy, as opposed to Bytes' reserved slab capacity.
func (a *Arena) UsedBytes() int64 { return a.terms * int64(termBytes) }

// Release parks the standard-size slabs in their class pools and drops the
// oversized ones. The arena must not be used afterwards, and no Form built
// from it may be touched again.
func (a *Arena) Release() {
	for _, s := range a.slabs {
		for i, sz := range arenaClasses {
			if len(*s) == sz {
				slabPools[i].Put(s)
				break
			}
		}
	}
	a.slabs, a.cur, a.off, a.nextClass = nil, nil, 0, 0
}

// Clone detaches a form from any arena by copying its terms to the heap.
func (f Form) Clone() Form {
	if len(f.Terms) == 0 {
		return Form{Nominal: f.Nominal}
	}
	terms := make([]Term, len(f.Terms))
	copy(terms, f.Terms)
	return Form{Nominal: f.Nominal, Terms: terms}
}

// AXPYIn is AXPY with the result terms borrowed from the arena. A nil
// arena falls back to the heap-allocating AXPY. The numerical result is
// bit-identical to AXPY.
func (f Form) AXPYIn(a *Arena, s float64, g Form) Form {
	if a == nil {
		return f.AXPY(s, g)
	}
	if s == 0 || len(g.Terms) == 0 {
		return Form{Nominal: f.Nominal + s*g.Nominal, Terms: f.Terms}
	}
	terms := axpyTerms(a.take(len(f.Terms)+len(g.Terms)), f.Terms, s, g.Terms)
	return Form{Nominal: f.Nominal + s*g.Nominal, Terms: a.trim(terms)}
}

// axpyTerms appends the terms of f + s·g to dst, which must have room for
// len(f) + len(g) terms, and returns it: the merge walk of AXPY.
func axpyTerms(dst, f []Term, s float64, g []Term) []Term {
	i, j := 0, 0
	// Fast path: forms produced by the same DP node usually carry the
	// same source set, so the two sorted lists align index-for-index.
	// Walking the aligned prefix with one predictable branch per term
	// computes exactly the shared-ID expression of the merge below.
	for i < len(f) && i < len(g) && f[i].ID == g[i].ID {
		if c := f[i].Coef + s*g[i].Coef; c != 0 {
			dst = append(dst, Term{f[i].ID, c})
		}
		i++
	}
	j = i
	for i < len(f) && j < len(g) {
		x, y := f[i], g[j]
		switch {
		case x.ID < y.ID:
			dst = append(dst, x)
			i++
		case x.ID > y.ID:
			dst = append(dst, Term{y.ID, s * y.Coef})
			j++
		default:
			if c := x.Coef + s*y.Coef; c != 0 {
				dst = append(dst, Term{x.ID, c})
			}
			i++
			j++
		}
	}
	dst = append(dst, f[i:]...)
	for ; j < len(g); j++ {
		dst = append(dst, Term{g[j].ID, s * g[j].Coef})
	}
	return dst
}

// AddIn returns f + g with arena-backed terms.
func (f Form) AddIn(a *Arena, g Form) Form { return f.AXPYIn(a, 1, g) }

// SubIn returns f - g with arena-backed terms.
func (f Form) SubIn(a *Arena, g Form) Form { return f.AXPYIn(a, -1, g) }

// ScaleIn returns s·f with arena-backed terms.
func (f Form) ScaleIn(a *Arena, s float64) Form {
	if a == nil {
		return f.Scale(s)
	}
	if s == 0 {
		return Form{}
	}
	terms := a.take(len(f.Terms))
	for _, t := range f.Terms {
		terms = append(terms, Term{t.ID, s * t.Coef})
	}
	return Form{Nominal: s * f.Nominal, Terms: terms}
}

// SubAXPYIn returns (f − g) + s·h with arena-backed terms, the buffer
// step T − T_b − R_b·L of eq. 35–36. A nil arena falls back to the heap.
// It is bitwise f.SubIn(a, g).AXPYIn(a, s, h) — the same two merge walks —
// but the intermediate f − g lives in the tail of the result's own arena
// block and is given back with it, so the arena keeps only the result.
// (A single three-way walk was tried and ran slower on the buffer steps
// of WID runs on amd64: its three-way next-ID choice cost more than the
// second pass it saved.)
func (f Form) SubAXPYIn(a *Arena, g Form, s float64, h Form) Form {
	switch {
	case a == nil:
		return f.Sub(g).AXPY(s, h)
	case len(g.Terms) == 0 || s == 0 || len(h.Terms) == 0:
		return f.SubIn(a, g).AXPYIn(a, s, h)
	}
	nx := len(f.Terms) + len(g.Terms)
	nr := nx + len(h.Terms)
	block := a.take(nr + nx)
	x := axpyTerms(block[nr:nr], f.Terms, -1, g.Terms)
	terms := axpyTerms(block[:0:nr], x, s, h.Terms)
	a.giveBack(nr + nx - len(terms))
	return Form{
		Nominal: (f.Nominal + -1*g.Nominal) + s*h.Nominal,
		Terms:   terms,
	}
}
