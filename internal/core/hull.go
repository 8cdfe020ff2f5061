// Convex-hull buffering kernel for b-type libraries (Li & Shi, "An
// O(bn²) Time Algorithm for Optimal Buffer Insertion with b Buffer
// Types", arxiv 0710.4691), extended to the paper's 2P variation-aware
// frontier.
//
// The exact path materializes one buffered candidate per (candidate,
// buffer type) pair — b·m forms, provenance records and frontier slots
// per site — and lets the next prune discard the dominated ones. But a
// buffer decouples the upstream tree from the downstream load: every
// buffered candidate of one type presents the same load C_b, so at most
// one of them (the one maximizing Q − R_b·C over the frontier) can
// survive the sweep, and that optimum lies on the upper convex hull of
// the (C, Q) staircase. The kernel exploits this:
//
//   - Deterministic / exact-means runs (pbar = 0.5): for each type, a
//     flat scan over the staircase picks the argmax of the exactly
//     mirrored buffered objective; Li–Shi predictive pruning then skips
//     the type entirely when an existing candidate or an
//     already-selected stronger type dominates it on arrival. The scan
//     visits every staircase point rather than only hull vertices — the
//     argmax must be computed with bit-exact float semantics to honor
//     the bit-identity contract, and at realistic frontier sizes the
//     O(b·m) flat scan over two contiguous float64 columns costs less
//     than the hull bookkeeping it would avoid. The win is not the scan,
//     it is what the scan makes unnecessary: O(b + m) materialized
//     candidates (forms, provenance, sort keys) per site instead of
//     O(b·m).
//
//   - 2P runs at pbar > 0.5: probabilistic dominance is no longer the
//     mean order, so per-type reduction to one candidate is unsound.
//     Instead a per-type pre-prune drops a candidate only when the
//     type's mean-best candidate *certainly* dominates it under the
//     existing probAtLeast sandwich: identical load forms make the
//     L-test a bitwise replica of the sweep's own test, and the T-test
//     is certified against the pessimistic sigma bound
//     σ(Tj − Ti) ≤ σTj + σTi with a relative safety margin.
//
//   - 4P runs and uncertifiable frontiers fall back to the exact path
//     (Stats.HullFallbacks).
//
// Soundness rests on a property of both sweep rules: a candidate that
// gets pruned never enters the kept set, so it never influences any
// other prune decision. Removing a provably-pruned candidate from the
// input therefore leaves every surviving candidate — keys, forms,
// provenance — bit-identical. DESIGN.md §14 carries the full argument,
// including the chain covering a pre-pruned candidate whose certifying
// dominator is itself pruned.
package core

import (
	"math"
	"sort"

	"vabuf/internal/rctree"
	"vabuf/internal/variation"
)

// hullSafety is the relative slack on the pbar > 0.5 certainty test:
// the kernel claims "the sweep will certainly prune this candidate"
// only when the pessimistic-bound inequality holds with this much
// margin, so the sweep's own float evaluation (relative error ~1e-16)
// can never disagree with the certificate.
const hullSafety = 1e-6

// hullEmit is the arrival key (mean load, mean RAT) of a type-best
// candidate already emitted at this site, kept for predictive pruning
// of later types.
type hullEmit struct {
	ln, tn float64
}

// hullScratch is the kernel's per-worker reusable state.
type hullScratch struct {
	// pmax[p][i] is max(tn[0..i]) over the polarity-p originals — the
	// running maximum the exact-means sweep would have seen before any
	// candidate with a larger load.
	pmax [2][]float64
	// emitted collects the type-best candidates appended to each target
	// polarity list at the current site.
	emitted [2][]hullEmit
}

// prep resets the per-site state for polarity p and builds the tn
// prefix-max over the n0 original candidates. It returns false when the
// originals are not weakly sorted by mean load — the invariant every
// frontier producer (leaf, wire propagation, merge + prune) maintains —
// in which case the caller must fall back to exact generation.
func (hs *hullScratch) prep(p int, f *frontier, n0 int) bool {
	hs.emitted[p] = hs.emitted[p][:0]
	if cap(hs.pmax[p]) < n0 {
		hs.pmax[p] = make([]float64, n0)
	}
	hs.pmax[p] = hs.pmax[p][:n0]
	pm := hs.pmax[p]
	run := math.Inf(-1)
	for i := 0; i < n0; i++ {
		if i > 0 && f.ln[i] < f.ln[i-1] {
			return false
		}
		if f.tn[i] > run {
			run = f.tn[i]
		}
		pm[i] = run
	}
	return true
}

// dominatedOnArrival reports whether a buffered candidate with keys
// (cbn, v) would certainly be removed by the exact-means sweep of the
// target list: some original or already-emitted type best sorts before
// it — smaller load, or equal load with strictly larger RAT — with a
// RAT at least v. This is exactly the sweep's pruning predicate at
// pbar = 0.5, so the skip is sound (and complete) for that rule.
func (hs *hullScratch) dominatedOnArrival(target int, tf *frontier, n0 int, cbn, v float64) bool {
	if n0 > 0 {
		ln := tf.ln[:n0]
		lo := sort.SearchFloat64s(ln, cbn) // first original with ln >= cbn
		if lo > 0 && hs.pmax[target][lo-1] >= v {
			return true
		}
		for i := lo; i < n0 && ln[i] == cbn; i++ {
			if tf.tn[i] > v {
				return true
			}
		}
	}
	for _, eb := range hs.emitted[target] {
		if (eb.ln < cbn && eb.tn >= v) || (eb.ln == cbn && eb.tn > v) {
			return true
		}
	}
	return false
}

// addBuffersHull is the hull-kernel replacement for addBuffersExact,
// dispatching on the active 2P flavor. The engine only routes here for
// 2P rules (4P keeps the exact path).
func (w *worker) addBuffersHull(id rctree.NodeID, node *rctree.Node, pl polarityLists) polarityLists {
	if w.prn.exactMeans {
		n0 := [2]int{pl[0].len(), pl[1].len()}
		for p := 0; p < 2; p++ {
			if !w.hull.prep(p, pl[p], n0[p]) {
				w.stats.HullFallbacks++
				return w.addBuffersExact(id, node, pl)
			}
		}
		return w.hullExactMeans(id, pl, n0)
	}
	return w.hull2P(id, pl)
}

// hullExactMeans handles deterministic runs and 2P at pbar = 0.5: per
// (type, source polarity) it materializes only the staircase argmax of
// the buffered objective, and skips even that when it is dominated on
// arrival. The drive-capability gate mirrors the exact path: MaxLoad is
// compared against the candidate's *nominal* load only (see
// addBuffersExact).
func (w *worker) hullExactMeans(id rctree.NodeID, pl polarityLists, n0 [2]int) polarityLists {
	e := w.eng
	dev := e.deviation(id)
	out := pl
	w.stats.HullSites++
	hs := &w.hull
	emitted := 0
	for bi, b := range e.opts.Library {
		// The scan keys are the device forms' nominals, which are exactly
		// Cb0 and Tb0 (see deviceForms), so the forms themselves are
		// materialized only once a (type, polarity) pair emits.
		var cbForm, tbForm variation.Form
		haveForms := false
		cbn, tbn := b.Cb0, b.Tb0
		nrb := -b.Rb
		for p := 0; p < 2; p++ {
			target := p
			if b.Inverting {
				target = 1 - p
			}
			src := pl[p]
			best, eligible := -1, 0
			bestV := 0.0
			for i := 0; i < n0[p]; i++ {
				if b.MaxLoad > 0 && src.ln[i] > b.MaxLoad {
					continue
				}
				eligible++
				// Mirrors the nominal arithmetic of SubAXPYIn below:
				// tn + (-1)·tbn is bitwise tn − tbn, and the add-of-product
				// shape matches SubAXPYIn's so any FMA contraction the
				// compiler applies is applied to both.
				v := (src.tn[i] - tbn) + nrb*src.ln[i]
				if best < 0 || v > bestV {
					best, bestV = i, v
				}
			}
			if best < 0 {
				continue
			}
			if hs.dominatedOnArrival(target, pl[target], n0[target], cbn, bestV) {
				w.stats.HullSkipped += int64(eligible)
				continue
			}
			w.stats.HullSkipped += int64(eligible - 1)
			if !haveForms {
				cbForm, tbForm = w.deviceForms(dev, b)
				haveForms = true
			}
			nt := src.tform(best).SubAXPYIn(w.terms, tbForm, nrb, src.lform(best))
			ref := w.prov.alloc(prov{pred: src.ref[best], pred2: -1, node: id, aux: int32(bi), op: opBuffer})
			if out[target] == nil {
				out[target] = newFrontier(n0[p], w.prn.needSigmas())
			}
			out[target].push(cbForm, nt, ref, e.space)
			w.stats.Generated++
			emitted++
			hs.emitted[target] = append(hs.emitted[target], hullEmit{ln: cbn, tn: nt.Nominal})
		}
	}
	if emitted > w.stats.HullPeak {
		w.stats.HullPeak = emitted
	}
	return out
}

// hull2P handles 2P runs at pbar > 0.5, where dominance is probabilistic
// and reduction to one candidate per type is unsound. Every type still
// emits its mean-best candidate; the other candidates of the type are
// emitted too unless the mean-best *certainly* dominates them:
//
//   - L: both share the identical load form cbForm, and L-dominance
//     between identical forms is decided by probAtLeast's covariance
//     fallback, whose outcome depends on how round(sqrt(Var))² compares
//     to Var — a per-type constant the kernel evaluates once with the
//     sweep's own code. When that test says no, the type pre-prunes
//     nothing.
//   - T: the mean gap must clear z_T times the pessimistic bound
//     σ(T_best) + σ(T_i), each bounded by the triangle inequality
//     σ(T) ≤ σ(T_src) + R_b·σ(L_src) + σ(tbForm) from the cached
//     frontier sigmas, with hullSafety slack. A gap that large passes
//     the sweep's certain-yes branch no matter the covariance — and the
//     chain in DESIGN.md §14 shows any kept candidate that pruned the
//     mean-best also certainly prunes i.
func (w *worker) hull2P(id rctree.NodeID, pl polarityLists) polarityLists {
	e := w.eng
	dev := e.deviation(id)
	out := pl
	n0 := [2]int{pl[0].len(), pl[1].len()}
	w.stats.HullSites++
	zT := w.prn.zT
	emitted := 0
	for bi, b := range e.opts.Library {
		cbForm, tbForm := w.deviceForms(dev, b)
		tbn := tbForm.Nominal
		nrb := -b.Rb
		cbSigma := cbForm.Sigma(e.space) // the sigma push will cache
		tbSigma := tbForm.Sigma(e.space)
		lOK := probAtLeast(0, cbSigma, cbSigma, w.prn.zL, cbForm, cbForm, e.space)
		for p := 0; p < 2; p++ {
			target := p
			if b.Inverting {
				target = 1 - p
			}
			src := pl[p]
			best := -1
			bestV := 0.0
			for i := 0; i < n0[p]; i++ {
				if b.MaxLoad > 0 && src.ln[i] > b.MaxLoad {
					continue
				}
				v := (src.tn[i] - tbn) + nrb*src.ln[i]
				if best < 0 || v > bestV {
					best, bestV = i, v
				}
			}
			if best < 0 {
				continue
			}
			var ubBest float64
			if lOK {
				ubBest = (src.st[best] + b.Rb*src.sl[best]) + tbSigma
			}
			for i := 0; i < n0[p]; i++ {
				if b.MaxLoad > 0 && src.ln[i] > b.MaxLoad {
					continue
				}
				if i != best && lOK {
					vi := (src.tn[i] - tbn) + nrb*src.ln[i]
					gap := bestV - vi
					ub := (src.st[i] + b.Rb*src.sl[i]) + tbSigma
					// Slack terms: relative on the sigma bound (covers the
					// Sigma computations' rounding) and on the means (the
					// sweep's gap is one subtraction, so its error scales
					// with |tn|, which can dwarf the sigmas).
					slack := hullSafety * (zT*(ubBest+ub) + math.Abs(bestV) + math.Abs(vi))
					if gap > 0 && gap >= zT*(ubBest+ub)+slack {
						w.stats.HullSkipped++
						continue
					}
				}
				nt := src.tform(i).SubAXPYIn(w.terms, tbForm, nrb, src.lform(i))
				ref := w.prov.alloc(prov{pred: src.ref[i], pred2: -1, node: id, aux: int32(bi), op: opBuffer})
				if out[target] == nil {
					out[target] = newFrontier(n0[p], w.prn.needSigmas())
				}
				out[target].push(cbForm, nt, ref, e.space)
				w.stats.Generated++
				emitted++
			}
		}
	}
	if emitted > w.stats.HullPeak {
		w.stats.HullPeak = emitted
	}
	return out
}
