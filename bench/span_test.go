package main

import "testing"

func TestSelfTimeIsDurationMinusWhatChildrenCover(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		// two children that overlap each other from 30 to 40
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},
		// a child that outlives its parent counts only up to the parent's end
		{ID: 4, Parent: 1, Name: "late", StartNS: 90, EndNS: 130},
		// a grandchild is taken from its own parent, not from the root
		{ID: 5, Parent: 2, Name: "leaf", StartNS: 15, EndNS: 25},
		// a child wholly inside an earlier sibling adds nothing
		{ID: 6, Parent: 1, Name: "a", StartNS: 12, EndNS: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 10), // covered: [10,60) and [90,100)
		2: 30 - 10,
		3: 30,
		4: 40,
		5: 10,
		6: 8,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Start("x", 0, 0)
	r.End(id)
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder returned span %d and spans %v", id, r.Spans())
	}
}

func TestRecorderLinksParentAndRep(t *testing.T) {
	r := newRecorder("w")
	root := r.Start("root", 0, 3)
	child := r.Start("child", root, 3)
	r.End(child)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	c := spans[child-1]
	if c.Parent != root || c.Rep != 3 || c.Workload != "w" || c.EndNS < c.StartNS {
		t.Errorf("child span %+v does not point at root %d", c, root)
	}
	if spans[root-1].EndNS < c.EndNS {
		t.Errorf("root ended at %d, before its child at %d", spans[root-1].EndNS, c.EndNS)
	}
}
