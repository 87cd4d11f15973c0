package scheme

import (
	"cmp"
	"fmt"

	"lwcomp/internal/core"
)

// Poly2Name is the registry name of the quadratic-model scheme.
const Poly2Name = "poly2"

// Poly2 represents columns that are exactly the evaluation of a
// fixed-segment piecewise-quadratic function — the paper's final
// model enrichment: "more generally, we would replace step functions
// with stepwise low-degree polynomials" (§II-B).
//
// Coefficients are fixed-point with frac fractional bits; the value at
// offset j within segment s is
//
//	c0[s] + (c1[s]·j) >> frac + (c2[s]·j²) >> frac
//
// As with Step and Linear, Compress accepts only exact columns; the
// lossy fit is Fit, which Plus and Patch use as their model.
//
// Form layout: Params{"seglen", "frac"}; Children{"c0", "c1", "c2"}
// of length ⌈N/ℓ⌉.
type Poly2 struct {
	// SegLen is the segment length; zero means
	// DefaultSegmentLength.
	SegLen int
	// Frac is the fixed-point fraction width; zero means
	// DefaultFracBits.
	Frac uint
}

// Name implements core.Scheme.
func (Poly2) Name() string { return Poly2Name }

// Poly2Predict evaluates the fixed-point quadratic at offset j.
func Poly2Predict(c0, c1, c2 int64, j int, frac uint) int64 {
	jj := int64(j)
	return c0 + (c1*jj)>>frac + (c2*jj*jj)>>frac
}

// params resolves and validates the segment length and fraction width.
func (p Poly2) params() (segLen int, frac uint, err error) {
	frac = cmp.Or(p.Frac, DefaultFracBits)
	if segLen, err = segLenOf(Poly2Name, p.SegLen); err == nil && frac > 24 {
		err = fmt.Errorf("poly2: fraction width %d too large (max 24)", frac)
	}
	return segLen, frac, err
}

// Compress verifies src is exactly piecewise quadratic under the
// least-squares fit and stores three coefficients per segment.
func (p Poly2) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(p, src) }

// CompressParts implements core.ConstituentCompressor: the column must
// be exactly piecewise quadratic; its coefficient columns go to emit.
func (p Poly2) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	return p.fit(src, s, emit, true)
}

// Fit implements Model: a least-squares quadratic per segment, c0
// shifted down so every residual is non-negative.
func (p Poly2) Fit(src []int64, s *core.Scratch) (*core.Form, error) {
	return p.fit(src, s, core.LeafEmit, false)
}

// fit fits one least-squares quadratic per segment and either checks
// that every element lies on it or shifts c0 down to the lowest
// residual.
func (p Poly2) fit(src []int64, s *core.Scratch, emit func(string, []int64) (*core.Form, error), exact bool) (*core.Form, error) {
	segLen, frac, err := p.params()
	if err != nil {
		return nil, err
	}
	nseg := segments(len(src), segLen)
	c0s, c1s, c2s := s.I64(nseg), s.I64(nseg), s.I64(nseg)
	defer s.PutI64(c0s)
	defer s.PutI64(c1s)
	defer s.PutI64(c2s)
	for seg := range c0s {
		lo := seg * segLen
		part := src[lo:min(lo+segLen, len(src))]
		c0, c1, c2 := fitQuadratic(part, frac)
		low := int64(0)
		for j, v := range part {
			r := v - Poly2Predict(c0, c1, c2, j, frac)
			if exact && r != 0 {
				return nil, fmt.Errorf("%w: poly2 scheme: segment %d deviates at element %d",
					core.ErrNotRepresentable, seg, lo+j)
			}
			if j == 0 || r < low {
				low = r
			}
		}
		c0s[seg], c1s[seg], c2s[seg] = c0+low, c1, c2
	}
	return modelForm(Poly2Name, len(src), segLen, frac, emit, []string{"c0", "c1", "c2"}, c0s, c1s, c2s)
}

// shape implements Model: three ID coefficients per segment.
func (p Poly2) shape(n int) (int, uint64, error) {
	segLen, _, err := p.params()
	if err != nil {
		return segLen, 0, err
	}
	return segLen, core.FormOverheadBits(2) + 3*leafBits(segments(n, segLen)), nil
}

// fitQuadratic computes the least-squares parabola of a segment in
// fixed point.
func fitQuadratic(seg []int64, frac uint) (c0, c1, c2 int64) {
	n := len(seg)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return seg[0], 0, 0
	}
	if n == 2 {
		base, slope := fitLineEndpoints(seg, frac)
		return base, slope, 0
	}
	// Normal equations for y = a + b·j + c·j² over j = 0..n−1.
	var s0, s1, s2, s3, s4, t0, t1, t2 float64
	for j, v := range seg {
		fj := float64(j)
		fv := float64(v)
		f2 := fj * fj
		s0++
		s1 += fj
		s2 += f2
		s3 += f2 * fj
		s4 += f2 * f2
		t0 += fv
		t1 += fj * fv
		t2 += f2 * fv
	}
	// Solve the 3×3 system by Cramer's rule.
	det := s0*(s2*s4-s3*s3) - s1*(s1*s4-s2*s3) + s2*(s1*s3-s2*s2)
	if det == 0 {
		base, slope := fitLineLeastSquares(seg, frac)
		return base, slope, 0
	}
	a := (t0*(s2*s4-s3*s3) - s1*(t1*s4-t2*s3) + s2*(t1*s3-t2*s2)) / det
	b := (s0*(t1*s4-t2*s3) - t0*(s1*s4-s2*s3) + s2*(s1*t2-s2*t1)) / det
	c := (s0*(s2*t2-s3*t1) - s1*(s1*t2-s2*t1) + t0*(s1*s3-s2*s2)) / det
	scale := float64(int64(1) << frac)
	round := func(v float64) int64 {
		if v < 0 {
			return int64(v - 0.5)
		}
		return int64(v + 0.5)
	}
	return round(a), round(b * scale), round(c * scale)
}

// DecompressInto evaluates the piecewise-quadratic function into dst.
func (Poly2) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkPoly2(f); err != nil {
		return err
	}
	segLen := int(f.Params["seglen"])
	frac := uint(f.Params["frac"])
	c0s, err := core.ChildScratch(f, "c0", s)
	if err != nil {
		return err
	}
	defer s.PutI64(c0s)
	c1s, err := core.ChildScratch(f, "c1", s)
	if err != nil {
		return err
	}
	defer s.PutI64(c1s)
	c2s, err := core.ChildScratch(f, "c2", s)
	if err != nil {
		return err
	}
	defer s.PutI64(c2s)
	for seg := 0; seg*segLen < f.N; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > f.N {
			hi = f.N
		}
		c0, c1, c2 := c0s[seg], c1s[seg], c2s[seg]
		for i := lo; i < hi; i++ {
			dst[i] = Poly2Predict(c0, c1, c2, i-lo, frac)
		}
	}
	return nil
}

// ValidateForm implements core.Validator.
func (Poly2) ValidateForm(f *core.Form) error { return checkPoly2(f) }

func checkPoly2(f *core.Form) error {
	if f.Scheme != Poly2Name {
		return fmt.Errorf("%w: poly2 scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	segLen, err := f.Params.Get(Poly2Name, "seglen")
	if err != nil {
		return err
	}
	if segLen < 1 {
		return fmt.Errorf("%w: poly2 segment length %d", core.ErrCorruptForm, segLen)
	}
	frac, err := f.Params.Get(Poly2Name, "frac")
	if err != nil {
		return err
	}
	if frac < 0 || frac > 24 {
		return fmt.Errorf("%w: poly2 fraction width %d", core.ErrCorruptForm, frac)
	}
	nseg := (f.N + int(segLen) - 1) / int(segLen)
	for _, name := range []string{"c0", "c1", "c2"} {
		c, err := f.Child(name)
		if err != nil {
			return err
		}
		if c.N != nseg {
			return fmt.Errorf("%w: poly2 child %q declares %d segments, need %d",
				core.ErrCorruptForm, name, c.N, nseg)
		}
	}
	return nil
}
