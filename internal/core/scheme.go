package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"lwcomp/internal/exec"
)

// ErrUnknownScheme is returned when a form names a scheme that has not
// been registered.
var ErrUnknownScheme = errors.New("core: unknown scheme")

// ErrNotRepresentable is returned by a scheme's Compress when the
// input column is outside the scheme's domain (for example, STEP can
// only represent exact fixed-segment step functions — the paper notes
// it "captures a tiny fragment of potential columns").
var ErrNotRepresentable = errors.New("core: column not representable by scheme")

// ErrCorruptForm is returned when a form's payload or children are
// inconsistent with its parameters.
var ErrCorruptForm = errors.New("core: corrupt form")

// Scheme is a lightweight compression scheme under the paper's
// columnar view: Compress splits a logical column into constituent
// columns (children of the returned Form) plus scalar parameters;
// DecompressInto reverses it. Each scheme states its split once and
// its reconstruction once: the whole-column API (Compress,
// core.Decompress) and the pooled block path (core.CompressScratch,
// core.DecompressInto with a Scratch) run the same two bodies.
//
// Compress must produce children that are ID forms (raw pure columns)
// or physical leaf forms; making children *themselves* compressed is
// the job of the Composite combinator — keeping the two concerns
// separate is exactly the paper's decomposition discipline.
//
// DecompressInto must handle children compressed by arbitrary schemes
// by resolving them through core.DecompressInto (DecompressChildInto,
// ChildScratch).
type Scheme interface {
	// Name returns the registry key, a short lowercase identifier.
	Name() string
	// Compress encodes src into a form.
	Compress(src []int64) (*Form, error)
	// DecompressInto reconstructs the column encoded by f into dst,
	// which has length f.N and unspecified contents. Temporaries come
	// from s, which may be nil (they are then plainly allocated).
	DecompressInto(f *Form, dst []int64, s *Scratch) error
}

// Planner is implemented by schemes whose decompression can be
// expressed as an operator plan over their immediate constituent
// columns — the paper's Algorithms 1 and 2. The returned plan's
// Input nodes name the form's children.
type Planner interface {
	Scheme
	// Plan returns the decompression plan for f.
	Plan(f *Form) (*exec.Plan, error)
}

// Validator is implemented by schemes that can structurally check
// their own forms (payload lengths against parameters and so on).
type Validator interface {
	// ValidateForm reports structural problems in a form of this
	// scheme.
	ValidateForm(f *Form) error
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Scheme{}
)

// Register adds s to the global scheme registry. Registering two
// schemes with the same name is a programming error and panics, per
// the database/sql driver-registration convention.
func Register(s Scheme) {
	registryMu.Lock()
	defer registryMu.Unlock()
	name := s.Name()
	if name == "" {
		panic("core: Register with empty scheme name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("core: Register called twice for scheme %q", name))
	}
	registry[name] = s
}

// Lookup returns the registered scheme with the given name.
func Lookup(name string) (Scheme, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Schemes returns the names of all registered schemes, sorted.
func Schemes() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Decompress reconstructs the logical column of a form tree into a
// fresh slice. The whole tree is validated before the output is sized
// from f.N, so a hostile length is refused, not allocated.
func Decompress(f *Form) ([]int64, error) {
	if f == nil {
		return nil, errors.New("core: Decompress(nil)")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	s := GetScratch()
	defer s.Release()
	out := make([]int64, f.N)
	if err := DecompressInto(f, out, s); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressChild resolves the named constituent column of f.
func DecompressChild(f *Form, name string) ([]int64, error) {
	c, err := f.Child(name)
	if err != nil {
		return nil, err
	}
	return Decompress(c)
}

// DecompressInto reconstructs f's column into dst (whose length must
// equal f.N) by dispatching on the form's scheme name, using s for
// decode temporaries. It is the single entry point schemes use to
// resolve their (possibly recursively compressed) constituent
// columns; with a reused Scratch the steady state allocates nothing.
func DecompressInto(f *Form, dst []int64, s *Scratch) error {
	if f == nil {
		return errors.New("core: DecompressInto(nil)")
	}
	if len(dst) != f.N {
		return fmt.Errorf("%w: DecompressInto dst length %d, form declares %d",
			ErrCorruptForm, len(dst), f.N)
	}
	sc, ok := Lookup(f.Scheme)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownScheme, f.Scheme)
	}
	if err := sc.DecompressInto(f, dst, s); err != nil {
		return fmt.Errorf("scheme %q: %w", f.Scheme, err)
	}
	return nil
}

// DecompressChildInto resolves the named constituent column of f into
// dst, which must have length equal to the child's N.
func DecompressChildInto(f *Form, name string, dst []int64, s *Scratch) error {
	c, err := f.Child(name)
	if err != nil {
		return err
	}
	return DecompressInto(c, dst, s)
}

// ChildScratch decompresses the named child into a scratch-borrowed
// buffer. The caller returns the buffer with s.PutI64 when done.
func ChildScratch(f *Form, name string, s *Scratch) ([]int64, error) {
	c, err := f.Child(name)
	if err != nil {
		return nil, err
	}
	buf := s.I64(c.N)
	if err := DecompressInto(c, buf, s); err != nil {
		s.PutI64(buf)
		return nil, err
	}
	return buf, nil
}

// Compress encodes src with the named registered scheme.
func Compress(schemeName string, src []int64) (*Form, error) {
	s, ok := Lookup(schemeName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, schemeName)
	}
	return s.Compress(src)
}

// PlanOf returns the operator-plan decompression of f if its scheme
// supports planning, along with the environment of decompressed
// constituent columns the plan's Input nodes expect.
func PlanOf(f *Form) (*exec.Plan, map[string][]int64, error) {
	s, ok := Lookup(f.Scheme)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownScheme, f.Scheme)
	}
	p, ok := s.(Planner)
	if !ok {
		return nil, nil, fmt.Errorf("core: scheme %q does not support plan decompression", f.Scheme)
	}
	plan, err := p.Plan(f)
	if err != nil {
		return nil, nil, err
	}
	env := make(map[string][]int64, len(f.Children))
	for _, name := range plan.Inputs() {
		col, err := DecompressChild(f, name)
		if err != nil {
			return nil, nil, err
		}
		env[name] = col
	}
	return plan, env, nil
}

// DecompressViaPlan reconstructs f's column by building and executing
// its scheme's operator plan — the paper's route — rather than the
// fused kernel. fuse selects whether the engine may substitute
// recognized idioms.
func DecompressViaPlan(f *Form, fuse bool) ([]int64, error) {
	plan, env, err := PlanOf(f)
	if err != nil {
		return nil, err
	}
	if fuse {
		plan = exec.Fuse(plan)
	}
	out, err := exec.Run(plan, env)
	if err != nil {
		return nil, err
	}
	if len(out) != f.N {
		return nil, fmt.Errorf("%w: plan produced %d values, form declares %d", ErrCorruptForm, len(out), f.N)
	}
	return out, nil
}
