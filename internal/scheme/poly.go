package scheme

import (
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
// As with Step and Linear, Compress accepts only exact columns; lossy
// fitting goes through Poly2Fitter + ModelResidual.
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

// Compress verifies src is exactly piecewise quadratic under the
// least-squares fit and stores three coefficients per segment.
func (s Poly2) Compress(src []int64) (*core.Form, error) {
	segLen := s.SegLen
	if segLen == 0 {
		segLen = DefaultSegmentLength
	}
	frac := s.Frac
	if frac == 0 {
		frac = DefaultFracBits
	}
	if segLen < 1 {
		return nil, fmt.Errorf("poly2: invalid segment length %d", segLen)
	}
	if frac > 24 {
		return nil, fmt.Errorf("poly2: fraction width %d too large (max 24)", frac)
	}
	nseg := (len(src) + segLen - 1) / segLen
	c0s := make([]int64, nseg)
	c1s := make([]int64, nseg)
	c2s := make([]int64, nseg)
	for seg := 0; seg < nseg; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > len(src) {
			hi = len(src)
		}
		c0, c1, c2 := fitQuadratic(src[lo:hi], frac)
		c0s[seg], c1s[seg], c2s[seg] = c0, c1, c2
		for i := lo; i < hi; i++ {
			if Poly2Predict(c0, c1, c2, i-lo, frac) != src[i] {
				return nil, fmt.Errorf("%w: poly2 scheme: segment %d deviates at element %d",
					core.ErrNotRepresentable, seg, i)
			}
		}
	}
	return NewPoly2Form(c0s, c1s, c2s, segLen, frac, len(src)), nil
}

// NewPoly2Form builds the canonical POLY2 form.
func NewPoly2Form(c0, c1, c2 []int64, segLen int, frac uint, n int) *core.Form {
	return &core.Form{
		Scheme: Poly2Name,
		N:      n,
		Params: core.Params{"seglen": int64(segLen), "frac": int64(frac)},
		Children: map[string]*core.Form{
			"c0": NewIDForm(c0),
			"c1": NewIDForm(c1),
			"c2": NewIDForm(c2),
		},
	}
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

// DecompressCostPerElement implements core.Coster: two multiplies,
// two shifts and two adds per element.
func (Poly2) DecompressCostPerElement(*core.Form) float64 { return 2.2 }

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

// Poly2Fitter fits fixed-segment quadratics by least squares, with
// bases shifted so residuals are non-negative.
type Poly2Fitter struct {
	// SegLen is the segment length; zero means
	// DefaultSegmentLength.
	SegLen int
	// Frac is the fixed-point fraction width; zero means
	// DefaultFracBits.
	Frac uint
}

// FitName implements ModelFitter.
func (pf Poly2Fitter) FitName() string { return fmt.Sprintf("poly2[%d]", pf.segLen()) }

func (pf Poly2Fitter) segLen() int {
	if pf.SegLen == 0 {
		return DefaultSegmentLength
	}
	return pf.SegLen
}

func (pf Poly2Fitter) frac() uint {
	if pf.Frac == 0 {
		return DefaultFracBits
	}
	return pf.Frac
}

// Fit implements ModelFitter.
func (pf Poly2Fitter) Fit(src []int64, s *core.Scratch) (*core.Form, []int64, error) {
	segLen := pf.segLen()
	frac := pf.frac()
	if segLen < 1 {
		return nil, nil, fmt.Errorf("poly2 fitter: invalid segment length %d", segLen)
	}
	if frac > 24 {
		return nil, nil, fmt.Errorf("poly2 fitter: fraction width %d too large (max 24)", frac)
	}
	nseg := (len(src) + segLen - 1) / segLen
	c0s := make([]int64, nseg)
	c1s := make([]int64, nseg)
	c2s := make([]int64, nseg)
	pred := s.I64(len(src))
	for seg := 0; seg < nseg; seg++ {
		lo := seg * segLen
		hi := lo + segLen
		if hi > len(src) {
			hi = len(src)
		}
		c0, c1, c2 := fitQuadratic(src[lo:hi], frac)
		// Shift c0 down so all residuals are ≥ 0.
		minResid := int64(0)
		first := true
		for i := lo; i < hi; i++ {
			r := src[i] - Poly2Predict(c0, c1, c2, i-lo, frac)
			if first || r < minResid {
				minResid = r
				first = false
			}
		}
		c0 += minResid
		c0s[seg], c1s[seg], c2s[seg] = c0, c1, c2
		for i := lo; i < hi; i++ {
			pred[i] = Poly2Predict(c0, c1, c2, i-lo, frac)
		}
	}
	return NewPoly2Form(c0s, c1s, c2s, segLen, frac, len(src)), pred, nil
}
