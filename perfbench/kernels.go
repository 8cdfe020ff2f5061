package main

import (
	"time"

	"vabuf/internal/variation"
)

// kernelForms bounds how many of a workload's RAT forms the kernel
// timing uses, and kernelReps how often each kernel runs per form.
const (
	kernelForms = 16
	kernelReps  = 2000
)

// timeKernels times the canonical-form kernels the DP spends its time
// in — AXPYIn (wire/merge sums), MinIn (statistical min at merges) and
// SigmaDiff (the 2P pruning test) — on the workload's own root RAT
// forms at their real term counts, paired with a scaled, shifted copy of
// themselves (the aligned-term case the DP hits most). It returns mean
// nanoseconds per call; forms without terms are skipped.
func timeKernels(forms []ratForm) (axpyNS, minNS, sigmaNS float64) {
	var axpy, minT, sig time.Duration
	calls := 0
	for _, rf := range forms {
		if len(rf.form.Terms) == 0 || rf.space == nil {
			continue
		}
		if calls/kernelReps >= kernelForms {
			break
		}
		f := rf.form
		g := f.Scale(0.9).Shift(3)
		a := variation.NewArena()
		t0 := time.Now()
		for r := 0; r < kernelReps; r++ {
			sinkForm = f.AXPYIn(a, 1, g)
		}
		axpy += time.Since(t0)
		t0 = time.Now()
		for r := 0; r < kernelReps; r++ {
			sinkForm = variation.MinIn(a, f, g, rf.space).Form
		}
		minT += time.Since(t0)
		a.Release()
		t0 = time.Now()
		for r := 0; r < kernelReps; r++ {
			sinkFloat = variation.SigmaDiff(f, g, rf.space)
		}
		sig += time.Since(t0)
		calls += kernelReps
	}
	if calls == 0 {
		return 0, 0, 0
	}
	n := float64(calls)
	return float64(axpy) / n, float64(minT) / n, float64(sig) / n
}

// Package-level sinks keep the compiler from dropping the timed calls.
var (
	sinkForm  variation.Form
	sinkFloat float64
)
