package scheme

import (
	"errors"
	"testing"

	"lwcomp/internal/core"
)

// frameWalk returns n values of a ±12 walk from 1,000.
func frameWalk(n int) []int64 {
	col := make([]int64, n)
	x := int64(1000)
	for i := range col {
		col[i] = x
		x += int64(i*7919%25 - 12)
	}
	return col
}

// TestDeltaFrame: a delta form of two segments or more carries a frame
// that tells the truth, priced exactly, described, and parsed back;
// CheckFrames refuses one that lies about any anchor or extreme, and the
// form's check refuses a frame whose shape is wrong.
func TestDeltaFrame(t *testing.T) {
	col := frameWalk(5*deltaSegLen + 100)
	f, err := DeltaNS().Compress(col)
	if err != nil {
		t.Fatal(err)
	}
	segLen, frame := DeltaFrame(f)
	if segLen != deltaSegLen || frame == nil || frame.N != 3*6 {
		t.Fatalf("frame: %d-row segments, %v", segLen, frame)
	}
	st := core.CollectStats(col, nil)
	if bits, kind, ok := core.EstimateOf(DeltaNS(), &st); !ok || kind != core.Exact || bits != f.PayloadBits() {
		t.Fatalf("price %d (%v, %v), form %d bits", bits, kind, ok, f.PayloadBits())
	}
	if got, want := f.Describe(), "delta(deltas=ns, frame=ns)"; got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
	reparsed, err := Parse(f.Describe())
	if err != nil || reparsed.Name() != DeltaNS().Name() {
		t.Fatalf("Parse(%q) = %v, %v; want %s", f.Describe(), reparsed, err, DeltaNS().Name())
	}
	s := core.GetScratch()
	defer s.Release()
	if err := CheckFrames(f, col, s); err != nil {
		t.Fatalf("honest frame: %v", err)
	}
	vals, err := core.Decompress(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		lying := f.Clone()
		forged := append([]int64(nil), vals...)
		forged[i]++
		lying.Children["frame"] = NewIDForm(forged)
		if err := CheckFrames(lying, col, s); !errors.Is(err, core.ErrCorruptForm) {
			t.Fatalf("frame value %d off by one: %v", i, err)
		}
	}
	// A frame below the root is found and checked against its decode.
	rle := core.Compose(RLE{}, map[string]core.Scheme{"lengths": NS{}, "values": DeltaNS()})
	runs := make([]int64, 0, 3*len(col))
	for _, v := range col {
		runs = append(runs, v, v, v)
	}
	rf, err := rle.Compress(runs)
	if err != nil {
		t.Fatal(err)
	}
	if _, frame := DeltaFrame(rf.Children["values"]); frame == nil {
		t.Fatal("rle values: no frame")
	}
	if err := CheckFrames(rf, runs, s); err != nil {
		t.Fatalf("nested honest frame: %v", err)
	}
	rf.Children["values"].Children["frame"] = NewIDForm(append(append([]int64(nil), vals[:3]...), make([]int64, len(vals)-3)...))
	if err := CheckFrames(rf, runs, s); !errors.Is(err, core.ErrCorruptForm) {
		t.Fatalf("nested lying frame: %v", err)
	}

	for name, corrupt := range map[string]func(g *core.Form){
		"no seglen":      func(g *core.Form) { delete(g.Params, "seglen") },
		"no frame":       func(g *core.Form) { delete(g.Children, "frame") },
		"nil frame":      func(g *core.Form) { g.Children["frame"] = nil },
		"seglen 0":       func(g *core.Form) { g.Params["seglen"] = 0 },
		"seglen 96":      func(g *core.Form) { g.Params["seglen"] = 96 },
		"seglen 1<<40":   func(g *core.Form) { g.Params["seglen"] = 1 << 40 },
		"short frame":    func(g *core.Form) { g.Children["frame"] = NewIDForm(vals[:len(vals)-3]) },
		"other seglen":   func(g *core.Form) { g.Params["seglen"] = 1024 },
		"negative width": func(g *core.Form) { g.Children["frame"].Params["width"] = -1 },
	} {
		g := f.Clone()
		corrupt(g)
		if _, err := core.Decompress(g); !errors.Is(err, core.ErrCorruptForm) && name != "negative width" {
			t.Errorf("%s: decode error %v, want a corrupt form", name, err)
		}
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate passes", name)
		}
	}
}
