package variation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"vabuf/internal/stats"
)

// Term is one first-order sensitivity: a coefficient on a single source.
type Term struct {
	ID   SourceID
	Coef float64
}

// Form is a sparse first-order (canonical) linear form over the sources of
// a Space (eq. 31–32 of the paper):
//
//	value = Nominal + Σ Terms[i].Coef · X_{Terms[i].ID}
//
// Terms are kept sorted by SourceID with no duplicates and no zero
// coefficients, so binary operations are linear merge walks. The zero value
// is the deterministic constant 0.
type Form struct {
	Nominal float64
	Terms   []Term
}

// Const returns a deterministic form with the given nominal value.
func Const(v float64) Form { return Form{Nominal: v} }

// NewForm builds a form from a nominal and a term list; the terms are
// copied, sorted and canonicalized (duplicates summed, zeros dropped).
func NewForm(nominal float64, terms []Term) Form {
	ts := make([]Term, len(terms))
	copy(ts, terms)
	slices.SortFunc(ts, func(a, b Term) int { return cmp.Compare(a.ID, b.ID) })
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].ID == t.ID {
			out[n-1].Coef += t.Coef
		} else {
			out = append(out, t)
		}
	}
	// Drop zero coefficients (including duplicates that cancelled).
	final := out[:0]
	for _, t := range out {
		if t.Coef != 0 {
			final = append(final, t)
		}
	}
	return Form{Nominal: nominal, Terms: final}
}

// IsDeterministic reports whether the form has no variation terms.
func (f Form) IsDeterministic() bool { return len(f.Terms) == 0 }

// Mean returns the expected value of the form (its nominal).
func (f Form) Mean() float64 { return f.Nominal }

// Shift returns f + d for a deterministic offset d.
func (f Form) Shift(d float64) Form {
	return Form{Nominal: f.Nominal + d, Terms: f.Terms}
}

// Scale returns s·f.
func (f Form) Scale(s float64) Form {
	if s == 0 {
		return Form{}
	}
	terms := make([]Term, len(f.Terms))
	for i, t := range f.Terms {
		terms[i] = Term{t.ID, s * t.Coef}
	}
	return Form{Nominal: s * f.Nominal, Terms: terms}
}

// Add returns f + g.
func (f Form) Add(g Form) Form { return f.AXPY(1, g) }

// Sub returns f - g.
func (f Form) Sub(g Form) Form { return f.AXPY(-1, g) }

// AXPY returns f + s·g, merging the two sorted term lists in one pass.
// This is the workhorse of the three key DP operations (eq. 33–37).
func (f Form) AXPY(s float64, g Form) Form {
	if s == 0 || len(g.Terms) == 0 {
		return Form{Nominal: f.Nominal + s*g.Nominal, Terms: f.Terms}
	}
	terms := axpyTerms(make([]Term, 0, len(f.Terms)+len(g.Terms)), f.Terms, s, g.Terms)
	return Form{Nominal: f.Nominal + s*g.Nominal, Terms: terms}
}

// Var returns the variance of the form, Σ coef² over its unit-normal
// sources (eq. 41–42). space names the registry the term IDs index; the
// unit-normal contract means no per-source value is read from it.
func (f Form) Var(space *Space) float64 {
	v := 0.0
	for _, t := range f.Terms {
		v += t.Coef * t.Coef
	}
	return v
}

// Sigma returns the standard deviation of the form under space.
func (f Form) Sigma(space *Space) float64 { return math.Sqrt(f.Var(space)) }

// Cov returns the covariance of f and g: Σ over shared sources of
// coef_f·coef_g (the numerator of eq. 43).
func Cov(f, g Form, space *Space) float64 {
	c := 0.0
	i, j := 0, 0
	for i < len(f.Terms) && j < len(g.Terms) {
		a, b := f.Terms[i], g.Terms[j]
		switch {
		case a.ID < b.ID:
			i++
		case a.ID > b.ID:
			j++
		default:
			c += a.Coef * b.Coef
			i++
			j++
		}
	}
	return c
}

// Corr returns the correlation coefficient of f and g (eq. 43). It is 0
// when either form is deterministic.
func Corr(f, g Form, space *Space) float64 {
	m := pairMomentsOf(f, g)
	return m.corr(math.Sqrt(m.vf), math.Sqrt(m.vg))
}

// SigmaDiff returns the standard deviation of f - g computed directly from
// the term lists, i.e. sqrt(Var(f) - 2Cov + Var(g)) without cancellation
// issues (eq. 9 / eq. 40). The variance of the difference is accumulated
// in a single merge walk over the two sorted term lists — no intermediate
// form is materialized, so the hot pruning paths stay allocation-free.
func SigmaDiff(f, g Form, space *Space) float64 {
	v := 0.0
	i, j := 0, 0
	for i < len(f.Terms) && j < len(g.Terms) {
		a, b := f.Terms[i], g.Terms[j]
		switch {
		case a.ID < b.ID:
			v += a.Coef * a.Coef
			i++
		case a.ID > b.ID:
			v += b.Coef * b.Coef
			j++
		default:
			c := a.Coef - b.Coef
			v += c * c
			i++
			j++
		}
	}
	for ; i < len(f.Terms); i++ {
		c := f.Terms[i].Coef
		v += c * c
	}
	for ; j < len(g.Terms); j++ {
		c := g.Terms[j].Coef
		v += c * c
	}
	return math.Sqrt(v)
}

// pairMoments are the second moments of two forms over their unit-normal
// sources.
type pairMoments struct {
	vf, vg float64 // Var(f), Var(g)
	cov    float64 // Cov(f, g)
	vd     float64 // Var(f − g)
}

// pairMomentsOf computes all four second moments of f and g in one merge
// walk. Each sum has its own accumulator and receives its terms in the
// order a standalone pass would add them — Var(f) in f's order, Var(g) in
// g's, Cov over shared IDs and Var(f − g) over the merged ID order — so
// each value is bitwise what Var, Cov and SigmaDiff (before its square
// root) compute alone.
func pairMomentsOf(f, g Form) pairMoments {
	var m pairMoments
	ft, gt := f.Terms, g.Terms
	i := 0
	// Aligned-prefix fast path; see axpyTerms.
	for ; i < len(ft) && i < len(gt) && ft[i].ID == gt[i].ID; i++ {
		x, y := ft[i].Coef, gt[i].Coef
		d := x - y
		m.vf += x * x
		m.vg += y * y
		m.cov += x * y
		m.vd += d * d
	}
	j := i
	for i < len(ft) && j < len(gt) {
		x, y := ft[i], gt[j]
		switch {
		case x.ID < y.ID:
			m.vf += x.Coef * x.Coef
			m.vd += x.Coef * x.Coef
			i++
		case x.ID > y.ID:
			m.vg += y.Coef * y.Coef
			m.vd += y.Coef * y.Coef
			j++
		default:
			d := x.Coef - y.Coef
			m.vf += x.Coef * x.Coef
			m.vg += y.Coef * y.Coef
			m.cov += x.Coef * y.Coef
			m.vd += d * d
			i++
			j++
		}
	}
	for ; i < len(ft); i++ {
		c := ft[i].Coef
		m.vf += c * c
		m.vd += c * c
	}
	for ; j < len(gt); j++ {
		c := gt[j].Coef
		m.vg += c * c
		m.vd += c * c
	}
	return m
}

// corr is the correlation coefficient from the moments and the two
// standard deviations sf = √vf, sg = √vg: 0 when either side is
// deterministic, clamped to [-1, 1] against rounding excursions.
func (m pairMoments) corr(sf, sg float64) float64 {
	if sf == 0 || sg == 0 {
		return 0
	}
	rho := m.cov / (sf * sg)
	return math.Max(-1, math.Min(1, rho))
}

// ProbGreater returns P(f > g) under the joint normal interpretation of
// the two forms (eq. 8).
func ProbGreater(f, g Form, space *Space) float64 {
	nom := f.Nominal - g.Nominal
	sd := SigmaDiff(f, g, space)
	if sd == 0 {
		switch {
		case nom > 0:
			return 1
		case nom < 0:
			return 0
		default:
			return 0.5
		}
	}
	return stats.Phi(nom / sd)
}

// Quantile returns the p-quantile of the form's normal distribution.
func (f Form) Quantile(p float64, space *Space) float64 {
	return stats.NormalQuantile(p, f.Nominal, f.Sigma(space))
}

// Eval evaluates the form at a sampled realization of the sources, as
// produced by Space.Sample.
func (f Form) Eval(samples []float64) float64 {
	v := f.Nominal
	for _, t := range f.Terms {
		v += t.Coef * samples[t.ID]
	}
	return v
}

// MinResult is the outcome of the statistical MIN of two forms.
type MinResult struct {
	// Form is the first-order approximation of min(f, g) via the tightness
	// probability (eq. 38): nominal matches Clark's exact mean; the
	// sensitivities are the tightness-weighted blend of the inputs.
	Form Form
	// Moments carries Clark's exact first two moments and the tightness
	// t = P(f < g).
	Moments stats.MinMoments
}

// Min computes the statistical minimum of two forms (eq. 38–40), keeping
// the result in canonical first-order shape. When one input is smaller
// with certainty the exact input form is returned unchanged. The result
// terms live on the heap; MinIn is the same operation with arena storage.
func Min(f, g Form, space *Space) MinResult { return MinIn(nil, f, g, space) }

// MinIn is the statistical MIN with the result terms borrowed from the
// arena (the heap when a is nil). One merge walk yields Var(f), Var(g),
// Cov(f, g) and Var(f − g); one blend walk emits the tightness-weighted
// terms and their Σc²; a last pass rescales them in place.
func MinIn(a *Arena, f, g Form, space *Space) MinResult {
	m := pairMomentsOf(f, g)
	if m.vd == 0 {
		// The difference is deterministic: min is exactly one of the inputs.
		mom := stats.MinMoments{SigmaDiff: 0}
		if f.Nominal <= g.Nominal {
			if f.Nominal == g.Nominal {
				mom.Tightness = 0.5
			} else {
				mom.Tightness = 1
			}
			mom.Mean = f.Nominal
			mom.Var = m.vf
			return MinResult{Form: f, Moments: mom}
		}
		mom.Tightness = 0
		mom.Mean = g.Nominal
		mom.Var = m.vg
		return MinResult{Form: g, Moments: mom}
	}
	sf := math.Sqrt(m.vf)
	sg := math.Sqrt(m.vg)
	mom := stats.MinNormals(f.Nominal, sf, g.Nominal, sg, m.corr(sf, sg))
	t := mom.Tightness
	// Blend sensitivities: t·beta_f + (1-t)·beta_g (eq. 38), then set the
	// nominal to Clark's exact mean (the -sigma·phi(...) correction).
	blended, vb := blendIn(a, t, f, 1-t, g)
	blended.Nominal = mom.Mean
	// Moment matching: the tightness blend preserves the mean but
	// understates the variance of the min; rescale the sensitivities so
	// the form carries Clark's exact second moment while keeping the
	// blended correlation structure. The blended terms are freshly
	// allocated, so the in-place rescale cannot alias the inputs.
	if vb > 0 && mom.Var > 0 {
		s := math.Sqrt(mom.Var / vb)
		for i := range blended.Terms {
			blended.Terms[i].Coef *= s
		}
	}
	return MinResult{Form: blended, Moments: mom}
}

// blendIn computes the terms of tf·f + tg·g in one merge pass and returns
// them with their variance Σc², summed in term order as they are emitted
// (the caller sets the nominal). The terms replicate the exact
// floating-point behaviour of f.Scale(tf).Add(g.Scale(tg)): a zero blend
// weight drops that side entirely (Scale(0) returns the empty form), and
// only coefficients that cancel on shared sources are dropped. The result
// terms always come from the arena or, with a nil arena, the heap (never
// aliased), so callers may rescale them in place.
func blendIn(a *Arena, tf float64, f Form, tg float64, g Form) (Form, float64) {
	fts, gts := f.Terms, g.Terms
	if tf == 0 {
		fts = nil
	}
	if tg == 0 {
		gts = nil
	}
	terms := a.take(len(fts) + len(gts))
	v := 0.0
	emit := func(id SourceID, c float64) {
		terms = append(terms, Term{id, c})
		v += c * c
	}
	i := 0
	// Aligned-prefix fast path; see axpyTerms.
	for ; i < len(fts) && i < len(gts) && fts[i].ID == gts[i].ID; i++ {
		if c := (tf * fts[i].Coef) + (tg * gts[i].Coef); c != 0 {
			emit(fts[i].ID, c)
		}
	}
	j := i
	for i < len(fts) && j < len(gts) {
		x, y := fts[i], gts[j]
		switch {
		case x.ID < y.ID:
			emit(x.ID, tf*x.Coef)
			i++
		case x.ID > y.ID:
			emit(y.ID, tg*y.Coef)
			j++
		default:
			if c := (tf * x.Coef) + (tg * y.Coef); c != 0 {
				emit(x.ID, c)
			}
			i++
			j++
		}
	}
	for ; i < len(fts); i++ {
		emit(fts[i].ID, tf*fts[i].Coef)
	}
	for ; j < len(gts); j++ {
		emit(gts[j].ID, tg*gts[j].Coef)
	}
	return Form{Terms: a.trim(terms)}, v
}

// Max computes the statistical maximum of two forms, mirroring Min via
// max(f, g) = -min(-f, -g): Clark-exact mean and variance with
// tightness-blended sensitivities. The returned Tightness is P(f > g),
// the probability that f dominates the MAX.
func Max(f, g Form, space *Space) MinResult {
	res := Min(f.Scale(-1), g.Scale(-1), space)
	out := res.Form.Scale(-1)
	res.Moments.Mean = -res.Moments.Mean
	return MinResult{Form: out, Moments: res.Moments}
}

// String renders the form compactly for debugging.
func (f Form) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.6g", f.Nominal)
	for _, t := range f.Terms {
		fmt.Fprintf(&b, "%+.3g·x%d", t.Coef, t.ID)
	}
	return b.String()
}
