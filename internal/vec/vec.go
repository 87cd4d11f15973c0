package vec

import (
	"errors"
	"fmt"
)

// ErrLengthMismatch is returned by binary element-wise operators when
// the two input columns differ in length.
var ErrLengthMismatch = errors.New("vec: input columns have different lengths")

// ErrIndexOutOfRange is returned by Gather and Scatter when an index
// column addresses an element outside the data column.
var ErrIndexOutOfRange = errors.New("vec: index out of range")

// ErrDivisionByZero is returned by element-wise division when a zero
// divisor is encountered.
var ErrDivisionByZero = errors.New("vec: division by zero")

// ErrEmptyInput is returned by operators that require at least one
// element (e.g. PopBack) when given an empty column.
var ErrEmptyInput = errors.New("vec: empty input column")

// ErrNegativeLength is returned by constructors asked to build a
// column of negative length.
var ErrNegativeLength = errors.New("vec: negative column length")

// Constant returns a column of n copies of v.
//
// It is the Constant(v, n) operator of Algorithms 1 and 2 in the
// paper.
func Constant(v int64, n int) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeLength, n)
	}
	out := make([]int64, n)
	if v != 0 {
		for i := range out {
			out[i] = v
		}
	}
	return out, nil
}

// ConstantInto fills dst with v and returns it.
func ConstantInto(dst []int64, v int64) []int64 {
	for i := range dst {
		dst[i] = v
	}
	return dst
}

// Iota returns the column [start, start+1, ..., start+n-1].
//
// Algorithm 2 of the paper builds this column as
// PrefixSum(Constant(1, n)); Iota is the fused equivalent and the
// executor uses it when it recognizes that idiom.
func Iota(start int64, n int) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeLength, n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)
	}
	return out, nil
}

// PrefixSumInclusive computes the inclusive prefix sum of src:
// out[i] = src[0] + ... + src[i].
//
// This is the PrefixSum operator of Algorithm 1 (where it integrates
// run lengths into run end positions).
func PrefixSumInclusive(src []int64) []int64 {
	out := make([]int64, len(src))
	var acc int64
	for i, v := range src {
		acc += v
		out[i] = acc
	}
	return out
}

// PrefixSumInclusiveInto writes the inclusive prefix sum of src into
// dst, which must have the same length as src. src and dst may alias.
func PrefixSumInclusiveInto(dst, src []int64) ([]int64, error) {
	if len(dst) != len(src) {
		return nil, fmt.Errorf("%w: dst %d, src %d", ErrLengthMismatch, len(dst), len(src))
	}
	var acc int64
	for i, v := range src {
		acc += v
		dst[i] = acc
	}
	return dst, nil
}

// PrefixSumExclusive computes the exclusive prefix sum of src:
// out[0] = 0 and out[i] = src[0] + ... + src[i-1].
//
// The composition PopBack ∘ PrefixSumInclusive used by Algorithm 1 to
// derive run start positions equals PrefixSumExclusive up to the
// missing total; the executor offers both.
func PrefixSumExclusive(src []int64) []int64 {
	out := make([]int64, len(src))
	var acc int64
	for i, v := range src {
		out[i] = acc
		acc += v
	}
	return out
}

// Delta computes out[0] = src[0] and out[i] = src[i] - src[i-1]. It is
// the inverse of PrefixSumInclusive and the kernel of the DELTA
// scheme.
func Delta(src []int64) []int64 {
	out := make([]int64, len(src))
	var prev int64
	for i, v := range src {
		out[i] = v - prev
		prev = v
	}
	return out
}

// PopBack returns src without its final element. It is the PopBack
// operator of Algorithm 1. The returned slice shares storage with src.
func PopBack(src []int64) ([]int64, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("vec: PopBack: %w", ErrEmptyInput)
	}
	return src[:len(src)-1], nil
}

// Last returns the final element of src; Algorithm 1 reads the total
// element count n this way from the inclusive prefix sum of lengths.
func Last(src []int64) (int64, error) {
	if len(src) == 0 {
		return 0, fmt.Errorf("vec: Last: %w", ErrEmptyInput)
	}
	return src[len(src)-1], nil
}

// Gather returns out[i] = data[indices[i]] for every i.
//
// It is the Gather operator of Algorithms 1 and 2.
func Gather(data, indices []int64) ([]int64, error) {
	out := make([]int64, len(indices))
	return out, gatherInto(out, data, indices)
}

func gatherInto(dst, data, indices []int64) error {
	n := int64(len(data))
	for i, ix := range indices {
		if ix < 0 || ix >= n {
			return fmt.Errorf("%w: gather index %d at position %d, data length %d", ErrIndexOutOfRange, ix, i, n)
		}
		dst[i] = data[ix]
	}
	return nil
}

// Scatter writes values[i] to out[positions[i]] over a fresh
// zero-initialized column of length n. Positions outside [0, n) are an
// error. If positions repeat, the later write wins — matching the
// sequential semantics assumed by Algorithm 1.
//
// It is the Scatter operator of Algorithm 1 (scattering ones to run
// start positions).
func Scatter(values, positions []int64, n int) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: %d", ErrNegativeLength, n)
	}
	if len(values) != len(positions) {
		return nil, fmt.Errorf("%w: values %d, positions %d", ErrLengthMismatch, len(values), len(positions))
	}
	out := make([]int64, n)
	if err := scatterInto(out, values, positions); err != nil {
		return nil, err
	}
	return out, nil
}

// ScatterInto scatters values into dst at positions without zeroing
// dst first, enabling scatter-over-base patterns (e.g. patching).
func ScatterInto(dst, values, positions []int64) ([]int64, error) {
	if len(values) != len(positions) {
		return nil, fmt.Errorf("%w: values %d, positions %d", ErrLengthMismatch, len(values), len(positions))
	}
	if err := scatterInto(dst, values, positions); err != nil {
		return nil, err
	}
	return dst, nil
}

func scatterInto(dst, values, positions []int64) error {
	n := int64(len(dst))
	for i, p := range positions {
		if p < 0 || p >= n {
			return fmt.Errorf("%w: scatter position %d at element %d, destination length %d", ErrIndexOutOfRange, p, i, n)
		}
		dst[p] = values[i]
	}
	return nil
}

// BinaryOp identifies an element-wise binary operator.
type BinaryOp uint8

// Supported element-wise binary operators. Div is the integer division
// used by Algorithm 2 to map element positions to segment indices.
const (
	Add BinaryOp = iota
	Sub
	Mul
	Div
	Mod
	Min
	Max
)

// String returns the operator's conventional symbol.
func (op BinaryOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("BinaryOp(%d)", uint8(op))
	}
}

// Valid reports whether op is one of the defined operators.
func (op BinaryOp) Valid() bool { return op <= Max }

// Elementwise applies op pairwise to columns a and b, which must have
// equal lengths. It is the Elementwise operator of Algorithm 2.
func Elementwise(op BinaryOp, a, b []int64) ([]int64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: a %d, b %d", ErrLengthMismatch, len(a), len(b))
	}
	out := make([]int64, len(a))
	return out, elementwiseInto(out, op, a, b)
}

func elementwiseInto(dst []int64, op BinaryOp, a, b []int64) error {
	switch op {
	case Add:
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	case Sub:
		for i := range dst {
			dst[i] = a[i] - b[i]
		}
	case Mul:
		for i := range dst {
			dst[i] = a[i] * b[i]
		}
	case Div:
		for i := range dst {
			if b[i] == 0 {
				return fmt.Errorf("%w: at position %d", ErrDivisionByZero, i)
			}
			dst[i] = a[i] / b[i]
		}
	case Mod:
		for i := range dst {
			if b[i] == 0 {
				return fmt.Errorf("%w: at position %d", ErrDivisionByZero, i)
			}
			dst[i] = a[i] % b[i]
		}
	case Min:
		for i := range dst {
			if a[i] < b[i] {
				dst[i] = a[i]
			} else {
				dst[i] = b[i]
			}
		}
	case Max:
		for i := range dst {
			if a[i] > b[i] {
				dst[i] = a[i]
			} else {
				dst[i] = b[i]
			}
		}
	default:
		return fmt.Errorf("vec: unknown binary op %d", op)
	}
	return nil
}

// ElementwiseScalar applies op with a constant right operand. The
// executor uses it to fuse Elementwise(op, col, Constant(c, n)).
func ElementwiseScalar(op BinaryOp, a []int64, c int64) ([]int64, error) {
	out := make([]int64, len(a))
	return out, elementwiseScalarInto(out, op, a, c)
}

func elementwiseScalarInto(dst []int64, op BinaryOp, a []int64, c int64) error {
	switch op {
	case Add:
		for i := range dst {
			dst[i] = a[i] + c
		}
	case Sub:
		for i := range dst {
			dst[i] = a[i] - c
		}
	case Mul:
		for i := range dst {
			dst[i] = a[i] * c
		}
	case Div:
		if c == 0 {
			return ErrDivisionByZero
		}
		for i := range dst {
			dst[i] = a[i] / c
		}
	case Mod:
		if c == 0 {
			return ErrDivisionByZero
		}
		for i := range dst {
			dst[i] = a[i] % c
		}
	case Min:
		for i := range dst {
			if a[i] < c {
				dst[i] = a[i]
			} else {
				dst[i] = c
			}
		}
	case Max:
		for i := range dst {
			if a[i] > c {
				dst[i] = a[i]
			} else {
				dst[i] = c
			}
		}
	default:
		return fmt.Errorf("vec: unknown binary op %d", op)
	}
	return nil
}
