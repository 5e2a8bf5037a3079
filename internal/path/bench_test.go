package path

import "testing"

// benchPaths are the members the kernel benchmarks work on: the shapes the
// Figure 3 iteration and the chain programs produce.
var benchPaths = []string{
	"S", "L1", "L2", "L+", "L2+", "R1", "R1D+", "L1R1", "L1R+", "D+", "D2+", "L1D+", "R+L1", "D3", "L1R1L1",
}

func mustParseIn(sp *Space, src string) Path {
	p, err := sp.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// BenchmarkSetWiden widens one eight-member set: "unmarked" runs the full
// widening each time (its verdicts are memo hits after the first), "marked"
// re-widens the recorded fixpoint, the common case on the analysis path.
func BenchmarkSetWiden(b *testing.B) {
	sp := NewSpace()
	ps := make([]Path, 8)
	for i := range ps {
		ps[i] = mustParseIn(sp, benchPaths[i+1]).AsPossible()
	}
	s := NewSet(ps...)
	b.Run("unmarked", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			s.Widen(DefaultLimits)
		}
	})
	w := s.Widen(DefaultLimits)
	b.Run("marked", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			w.Widen(DefaultLimits)
		}
	})
}

// BenchmarkSubsumesColdSpace decides Subsumes for every ordered pair of
// benchPaths on a fresh Space, so every verdict is a memo miss that runs the
// subset construction. Building the Space is not timed.
func BenchmarkSubsumesColdSpace(b *testing.B) {
	b.ReportAllocs()
	ps := make([]Path, len(benchPaths))
	for b.Loop() {
		b.StopTimer()
		sp := NewSpace()
		for j, src := range benchPaths {
			ps[j] = mustParseIn(sp, src)
		}
		b.StartTimer()
		for _, p := range ps {
			for _, q := range ps {
				Subsumes(p, q)
			}
		}
	}
}
