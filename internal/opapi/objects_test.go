package opapi

import "testing"

type meterT struct{ n int }
type collT struct{ n int }

// TestObjectsKeyByTypeAndName: one set returns one object per type and
// name, creating it once; two sets share nothing, except that a lookup
// in an instance's set finds what the default set already holds.
func TestObjectsKeyByTypeAndName(t *testing.T) {
	objs, made := NewObjects(), 0
	mk := func() *meterT { made++; return &meterT{} }
	m := Obtain(objs, "x", mk)
	if Obtain(objs, "x", mk) != m || made != 1 {
		t.Fatalf("second lookup made a new object (%d made)", made)
	}
	if c := Obtain(objs, "x", func() *collT { return &collT{} }); c == nil || made != 1 {
		t.Fatal("a collector named like a meter did not get its own object")
	}
	if Obtain(NewObjects(), "x", mk) == m {
		t.Fatal("two sets share an object")
	}
	def := Obtain(nil, "objects-test-default", mk)
	if Obtain(DefaultObjects, "objects-test-default", mk) != def || Obtain(objs, "objects-test-default", mk) != def {
		t.Fatal("the default set's object is not found through nil or an instance's set")
	}
}
