package scheme

import (
	"fmt"
	"slices"

	"lwcomp/internal/bitpack"
	"lwcomp/internal/core"
	"lwcomp/internal/exec"
)

// DictName is the registry name of the dictionary scheme.
const DictName = "dict"

// Dict is dictionary encoding — "using small dictionaries" (§I). The
// distinct values are stored sorted in a dictionary column; the data
// column stores indices into it. Keeping the dictionary sorted makes
// codes order-preserving, so range predicates can be evaluated on
// codes directly (the query package exploits this).
//
// Form layout: Children{"codes"} of length N and Children{"dict"} of
// length equal to the number of distinct values.
type Dict struct{}

// Name implements core.Scheme.
func (Dict) Name() string { return DictName }

// Compress builds the sorted dictionary and code column.
func (sch Dict) Compress(src []int64) (*core.Form, error) { return core.CompressPooled(sch, src) }

// dictHash spreads a value over the top bits of a word (Fibonacci
// hashing); a table of 2^k slots indexes by its top k bits.
func dictHash(v int64, shift uint) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> shift
}

// dictTable borrows an open-addressing table of 2^(64-shift) slots
// holding every value of seen under its index plus one; zero marks an
// empty slot, so the borrowed keys need no clearing and the value 0
// is a key like any other.
func dictTable(seen []int64, shift uint, s *core.Scratch) (keys, nums []int64) {
	keys, nums = s.I64(1<<(64-shift)), s.I64(1<<(64-shift))
	clear(nums)
	for num, v := range seen {
		h := dictHash(v, shift)
		for nums[h] != 0 {
			h = (h + 1) & uint64(len(nums)-1)
		}
		keys[h], nums[h] = v, int64(num)+1
	}
	return keys, nums
}

// CompressParts implements core.ConstituentCompressor: one pass over
// the column finds the distinct values through a borrowed
// open-addressing table, numbering them in order of first appearance,
// so only the dictionary — never the column — is sorted, and the
// codes are those numbers mapped through the sort's permutation. The
// table is regrown fourfold whenever the distinct values outgrow a
// quarter of its slots, which keeps probe chains short at any
// cardinality without a count in advance.
func (Dict) CompressParts(src []int64, s *core.Scratch, emit func(name string, col []int64) (*core.Form, error)) (*core.Form, error) {
	codes := s.I64(len(src))
	defer s.PutI64(codes)
	seen := s.I64(len(src))[:0] // distinct values, in order of first appearance
	defer s.PutI64(seen)
	shift := uint(64 - 10)
	keys, nums := dictTable(nil, shift, s)
	for i, v := range src {
		h := dictHash(v, shift)
		for nums[h] != 0 && keys[h] != v {
			h = (h + 1) & uint64(len(nums)-1)
		}
		if nums[h] != 0 {
			codes[i] = nums[h] - 1
			continue
		}
		codes[i] = int64(len(seen))
		seen = append(seen, v)
		keys[h], nums[h] = v, int64(len(seen))
		if 4*len(seen) > len(nums) {
			s.PutI64(keys)
			s.PutI64(nums)
			shift -= 2
			keys, nums = dictTable(seen, shift, s)
		}
	}
	dict := s.I64(len(seen))
	defer s.PutI64(dict)
	copy(dict, seen)
	slices.Sort(dict)
	// seen has served as the value list: reuse it as the permutation
	// from first-appearance number to sorted code.
	for code, v := range dict {
		h := dictHash(v, shift)
		for nums[h] == 0 || keys[h] != v {
			h = (h + 1) & uint64(len(nums)-1)
		}
		seen[nums[h]-1] = int64(code)
	}
	s.PutI64(keys)
	s.PutI64(nums)
	for i, num := range codes {
		codes[i] = seen[num]
	}
	codesForm, err := emit("codes", codes)
	if err != nil {
		return nil, err
	}
	dictForm, err := emit("dict", dict)
	if err != nil {
		return nil, err
	}
	return &core.Form{
		Scheme: DictName,
		N:      len(src),
		Children: map[string]*core.Form{
			"codes": codesForm,
			"dict":  dictForm,
		},
	}, nil
}

// DecompressInto gathers dictionary entries by code. When the codes
// child is a plain NS leaf, of any width, bitpack.GatherU unpacks each
// 64-code block and indexes the dictionary in the same pass; otherwise
// the codes decode into dst and the gather rewrites dst in place
// (reading dst[i] before writing it is safe element-wise).
func (Dict) DecompressInto(f *core.Form, dst []int64, s *core.Scratch) error {
	if err := checkDict(f); err != nil {
		return err
	}
	dict, err := core.ChildScratch(f, "dict", s)
	if err != nil {
		return err
	}
	defer s.PutI64(dict)
	codes, err := f.Child("codes")
	if err != nil {
		return err
	}
	if codes.Scheme == NSName && codes.Params["zigzag"] != 1 {
		if w := codes.Params["width"]; w >= 0 && codes.N == f.N {
			if err := bitpack.GatherU(codes.Packed, 0, f.N, uint(w), dict, dst[:f.N]); err != nil {
				return fmt.Errorf("%w: dict gather: %v", core.ErrCorruptForm, err)
			}
			return nil
		}
	}
	if err := core.DecompressChildInto(f, "codes", dst, s); err != nil {
		return err
	}
	n := int64(len(dict))
	for i, c := range dst {
		if c < 0 || c >= n {
			return fmt.Errorf("%w: dict code %d out of range at position %d", core.ErrCorruptForm, c, i)
		}
		dst[i] = dict[c]
	}
	return nil
}

// Plan implements core.Planner: dictionary decompression is a single
// Gather — the simplest instance of the paper's observation that
// decompression operators are query-plan operators.
func (Dict) Plan(f *core.Form) (*exec.Plan, error) {
	if err := checkDict(f); err != nil {
		return nil, err
	}
	b := exec.NewBuilder()
	dict := b.Input("dict")
	codes := b.Input("codes")
	b.Gather(dict, codes)
	return b.Build()
}

// ValidateForm implements core.Validator.
func (Dict) ValidateForm(f *core.Form) error { return checkDict(f) }

// ConstituentStats implements core.ConstituentStatser, bounded: the
// dictionary size is the (estimated) distinct count, codes run
// exactly as the values do, and the sorted dictionary spans the
// column's extremes.
func (Dict) ConstituentStats(st *core.BlockStats) (uint64, []core.PredictedChild, bool, bool) {
	if !st.HasMinMax || !st.HasDistinct {
		return 0, nil, false, false
	}
	codes, dict := dictParts(st, st.Distinct)
	return core.FormOverheadBits(0), []core.PredictedChild{
		{Name: "codes", Stats: codes},
		{Name: "dict", Stats: dict},
	}, false, true
}

// SizeFloor implements core.SizeFloorer: ConstituentStats evaluated at
// st.DistinctFloor, the sketch's set-bit count, which never exceeds
// the true distinct count D. The codes are the ranks 0…D−1, each
// present, and run exactly as the values do; the sorted dictionary
// holds D values spanning the column's Min and Max. So the children
// stated at that count have the true Min, Runs and MaxRunLen and an N
// and Max no larger than the true ones, and the inner prices PartFloor
// reads (ID, NS, RLE over NS) cannot exceed the true children's sizes.
func (Dict) SizeFloor(st *core.BlockStats, inner map[string]core.Scheme) uint64 {
	if !st.HasMinMax || !st.HasDistinct {
		return 0
	}
	codes, dict := dictParts(st, st.DistinctFloor)
	cb, cok := core.PartFloor("codes", &codes, inner)
	db, dok := core.PartFloor("dict", &dict, inner)
	if !cok || !dok {
		return 0
	}
	return core.FormOverheadBits(0) + cb + db
}

// dictParts states the codes and dictionary columns of a column with d
// distinct values (clamped to [1, N] for a non-empty column).
func dictParts(st *core.BlockStats, d int) (codes, dict core.BlockStats) {
	d = min(d, st.N)
	if st.N > 0 {
		d = max(d, 1)
	}
	codes.N = st.N
	codes.HasMinMax = true
	dict.N = d
	dict.HasMinMax = true
	if st.N > 0 {
		codes.Max = int64(d - 1)
		dict.Min, dict.Max = st.Min, st.Max
	}
	if st.HasRuns {
		codes.Runs = st.Runs
		codes.MaxRunLen = st.MaxRunLen
		codes.HasRuns = true
	}
	return codes, dict
}

func checkDict(f *core.Form) error {
	if f.Scheme != DictName {
		return fmt.Errorf("%w: dict scheme given form %q", core.ErrCorruptForm, f.Scheme)
	}
	codes, err := f.Child("codes")
	if err != nil {
		return err
	}
	if _, err := f.Child("dict"); err != nil {
		return err
	}
	if codes.N != f.N {
		return fmt.Errorf("%w: dict codes child declares %d values, form declares %d",
			core.ErrCorruptForm, codes.N, f.N)
	}
	return nil
}
