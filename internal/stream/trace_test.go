package stream

import "testing"

func subParent() *Trace {
	return Pack([]Access{
		{Addr: 0x00, Kind: Z},
		{Addr: 0x40, Kind: Texture},
		{Addr: 0x80, Kind: RT, Write: true},
		{Addr: 0xc0, Kind: Display, Write: true},
		{Addr: 0x100, Kind: Vertex},
	})
}

func TestTraceSub(t *testing.T) {
	parent := subParent()
	cases := []struct {
		lo, hi       int
		wantLo, want int // first parent record and length of the view
	}{
		{1, 4, 1, 3},
		{0, 5, 0, 5},
		{-3, 2, 0, 2},  // lo clamps to 0
		{3, 99, 3, 2},  // hi clamps to Len
		{4, 2, 4, 0},   // hi below lo gives an empty view
		{7, 9, 5, 0},   // lo past the end gives an empty view
		{-1, -1, 0, 0}, // both below the start
	}
	for _, c := range cases {
		v := parent.Sub(c.lo, c.hi)
		if v.Len() != c.want {
			t.Errorf("Sub(%d, %d).Len() = %d, want %d", c.lo, c.hi, v.Len(), c.want)
			continue
		}
		for i := 0; i < v.Len(); i++ {
			got, want := v.At(i), parent.At(c.wantLo+i)
			want.Seq = int64(i) // positions restart at 0 in the view
			if got != want {
				t.Errorf("Sub(%d, %d).At(%d) = %+v, want %+v", c.lo, c.hi, i, got, want)
			}
		}
	}
}

func TestTraceSubAppendLeavesParent(t *testing.T) {
	parent := subParent()
	before := make([]Access, parent.Len())
	for i := range before {
		before[i] = parent.At(i)
	}
	v := parent.Sub(1, 3)
	v.Append(Access{Addr: 0xdead, Kind: Other})
	v.Append(Access{Addr: 0xbeef, Kind: Other, Write: true})
	if v.Len() != 4 || v.Addr(2) != 0xdead || v.Addr(3) != 0xbeef {
		t.Fatalf("view after Append: len %d", v.Len())
	}
	if parent.Len() != len(before) {
		t.Fatalf("parent length changed to %d", parent.Len())
	}
	for i, want := range before {
		if got := parent.At(i); got != want {
			t.Errorf("parent record %d = %+v after Append on view, want %+v", i, got, want)
		}
	}
}
