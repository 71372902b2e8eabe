package main

import "testing"

func TestOffHeapFillsToCapacity(t *testing.T) {
	o, err := newOffHeap[[2]int64](3)
	if err != nil {
		t.Fatal(err)
	}
	defer o.free()
	for i := int64(0); i < 3; i++ {
		if !o.add([2]int64{i, -i}) {
			t.Fatalf("add %d refused below capacity", i)
		}
	}
	if o.add([2]int64{9, 9}) {
		t.Error("add past capacity accepted")
	}
	for i, r := range o.recs {
		if r != [2]int64{int64(i), -int64(i)} {
			t.Errorf("record %d reads %v", i, r)
		}
	}
	if _, err := newOffHeap[[2]int64](0); err == nil {
		t.Error("zero capacity accepted")
	}
}
