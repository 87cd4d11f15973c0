package query

import (
	"fmt"

	"lwcomp/internal/core"
	"lwcomp/internal/scheme"
	"lwcomp/internal/vec"
)

// Min returns the exact minimum of the column represented by f,
// exploiting form structure: FOR's minimum is the minimum of its refs
// (offsets are non-negative by construction), DICT's is its first
// dictionary entry, RLE/RPE scan run values only.
func Min(f *core.Form) (int64, error) {
	lo, _, err := extremes(f, "Min", false)
	return lo, err
}

// Max returns the exact maximum of the column represented by f, with
// the same structural shortcuts as Min where they are exact and a
// decompression fallback otherwise.
func Max(f *core.Form) (int64, error) {
	_, hi, err := extremes(f, "Max", true)
	return hi, err
}

// MinMax returns the exact minimum and maximum of the column in one
// call: whichever constituent holds both extremes (run values, the
// dictionary, the materialized column) is decoded once. It exists for
// callers that adopt pre-existing forms into the blocked-column API
// and need per-block [min, max] stats.
func MinMax(f *core.Form) (int64, int64, error) {
	return extremes(f, "MinMax", true)
}

// extremes is the one structural walk behind Min, Max and MinMax (op
// names the caller in errors). It always returns both extremes except
// on the one route where the minimum is cheaper alone — FOR's refs —
// which it takes only when the caller does not need the maximum.
func extremes(f *core.Form, op string, needMax bool) (lo, hi int64, err error) {
	if f.N == 0 {
		return 0, 0, fmt.Errorf("query: %s of empty column", op)
	}
	part := ""
	switch f.Scheme {
	case scheme.ConstName:
		v := f.Params["value"]
		return v, v, nil

	case scheme.RLEName, scheme.RPEName:
		part = "values"

	case scheme.DictName:
		dict, err := core.DecompressChild(f, "dict")
		if err != nil {
			return 0, 0, err
		}
		if len(dict) == 0 {
			return 0, 0, fmt.Errorf("%w: dict form with empty dictionary", core.ErrCorruptForm)
		}
		// The dictionary is sorted but may contain entries unused by
		// the codes; dictionaries built by Dict.Compress use all
		// entries, so its ends are the extremes.
		return dict[0], dict[len(dict)-1], nil

	case scheme.FORName:
		// Offsets are ≥ 0 against per-segment minima, so the column
		// minimum is the refs minimum — when the offsets child is an
		// unsigned NS/VNS payload. The maximum, and foreign offsets,
		// need the column.
		offsets, err := f.Child("offsets")
		if err != nil {
			return 0, 0, err
		}
		if !needMax && isUnsignedPacked(offsets) {
			part = "refs"
		}

	case scheme.StepName:
		part = "refs"
	}
	var col []int64
	if part != "" {
		col, err = core.DecompressChild(f, part)
	} else {
		col, err = core.Decompress(f)
	}
	if err != nil {
		return 0, 0, err
	}
	return vec.MinMax(col)
}

// isUnsignedPacked reports whether a form is an NS or VNS payload
// without zigzag (values known non-negative).
func isUnsignedPacked(f *core.Form) bool {
	return (f.Scheme == scheme.NSName || f.Scheme == scheme.VNSName) && f.Params["zigzag"] == 0
}

// DistinctCount returns the number of distinct values, shortcut for
// the forms that carry it structurally: DICT's dictionary length and
// CONST's single value are exact without touching the data; RLE/RPE
// bound work by the run count.
func DistinctCount(f *core.Form) (int64, error) {
	switch f.Scheme {
	case scheme.ConstName:
		if f.N == 0 {
			return 0, nil
		}
		return 1, nil

	case scheme.DictName:
		dict, err := f.Child("dict")
		if err != nil {
			return 0, err
		}
		return int64(dict.N), nil

	case scheme.RLEName, scheme.RPEName:
		values, err := core.DecompressChild(f, "values")
		if err != nil {
			return 0, err
		}
		return countDistinct(values), nil
	}
	col, err := core.Decompress(f)
	if err != nil {
		return 0, err
	}
	return countDistinct(col), nil
}

func countDistinct(col []int64) int64 {
	seen := make(map[int64]struct{}, 256)
	for _, v := range col {
		seen[v] = struct{}{}
	}
	return int64(len(seen))
}
