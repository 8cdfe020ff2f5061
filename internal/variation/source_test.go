package variation

import (
	"math"
	"math/rand"
	"testing"

	"vabuf/internal/stats"
)

func TestSpaceAddAndLookup(t *testing.T) {
	s := NewSpace()
	a := s.Add(ClassRandom, "a")
	b := s.Add(ClassSpatial, "b")
	c := s.Add(ClassInterDie, "c")
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if a != 0 || b != 1 || c != 2 {
		t.Errorf("IDs not dense: %d %d %d", a, b, c)
	}
	src := s.Source(b)
	if src.ID != b || src.Class != ClassSpatial || src.Label != "b" {
		t.Errorf("Source(b) = %+v", src)
	}
	if src := s.Source(c); src.ID != c || src.Class != ClassInterDie || src.Label != "c" {
		t.Errorf("Source(c) = %+v", src)
	}
	counts := s.CountByClass()
	if counts[ClassRandom] != 1 || counts[ClassSpatial] != 1 || counts[ClassInterDie] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestClassString(t *testing.T) {
	if ClassRandom.String() != "random" ||
		ClassSpatial.String() != "spatial" ||
		ClassInterDie.String() != "inter-die" {
		t.Error("Class.String labels wrong")
	}
	if Class(99).String() == "" {
		t.Error("unknown class produced empty string")
	}
}

func TestSampleMoments(t *testing.T) {
	s := NewSpace()
	s.Add(ClassRandom, "u")
	s.Add(ClassRandom, "w")
	rng := rand.New(rand.NewSource(99))
	const n = 100000
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	var buf []float64
	for i := 0; i < n; i++ {
		buf = s.Sample(rng, buf)
		xs = append(xs, buf[0])
		// Sources are unit normal; a coefficient carries the scale, here
		// a standard deviation of 4.
		ys = append(ys, 4*buf[1])
	}
	m0, v0 := stats.MeanVar(xs)
	m1, v1 := stats.MeanVar(ys)
	if math.Abs(m0) > 0.02 || math.Abs(m1) > 0.06 {
		t.Errorf("sample means = %g, %g, want ~0", m0, m1)
	}
	if math.Abs(v0-1) > 0.03 {
		t.Errorf("sample var source 0 = %g, want 1", v0)
	}
	if math.Abs(v1-16) > 0.5 {
		t.Errorf("sample var of 4·source 1 = %g, want 16", v1)
	}
	// Independence.
	r, err := stats.Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.02 {
		t.Errorf("sources correlated: %g", r)
	}
}

func TestSampleReusesBuffer(t *testing.T) {
	s := NewSpace()
	s.Add(ClassRandom, "a")
	s.Add(ClassRandom, "b")
	rng := rand.New(rand.NewSource(1))
	buf := make([]float64, 10)
	out := s.Sample(rng, buf)
	if len(out) != 2 {
		t.Errorf("sample len = %d", len(out))
	}
	if &out[0] != &buf[0] {
		t.Error("Sample reallocated despite sufficient capacity")
	}
}

func TestFormSamplingMatchesAnalyticMoments(t *testing.T) {
	// End-to-end: the analytic Var of a form equals the sample variance of
	// its evaluations.
	s := NewSpace()
	a := s.Add(ClassRandom, "a")
	b := s.Add(ClassRandom, "b")
	// Var = 3² + 2² = 13; the coefficient -2 carries a source scale of 2
	// on a unit-normal source.
	f := NewForm(10, []Term{{a, 3}, {b, -2}})
	rng := rand.New(rand.NewSource(5))
	const n = 200000
	vals := make([]float64, 0, n)
	var buf []float64
	for i := 0; i < n; i++ {
		buf = s.Sample(rng, buf)
		vals = append(vals, f.Eval(buf))
	}
	m, v := stats.MeanVar(vals)
	if math.Abs(m-10) > 0.05 {
		t.Errorf("sampled mean = %g, want 10", m)
	}
	if want := f.Var(s); math.Abs(v-want)/want > 0.03 {
		t.Errorf("sampled var = %g, want %g", v, want)
	}
}
