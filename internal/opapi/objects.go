package opapi

import (
	"reflect"
	"sync"
)

// Objects is one platform instance's set of out-of-band objects — the
// collections, injectors, meters, models and stores an operator named
// by a string parameter shares with a driver or a routine. An object is
// keyed by its Go type plus its name, so a collector and a meter named
// alike never collide, and it lives as long as the set: a restarted
// PE's operators reattach to what their predecessors used.
type Objects struct {
	mu sync.Mutex
	m  map[objectKey]any
}

type objectKey struct {
	t    reflect.Type
	name string
}

// NewObjects returns an empty set.
func NewObjects() *Objects { return &Objects{m: make(map[objectKey]any)} }

// DefaultObjects serves what runs outside a platform instance: a PE
// built without a set, a context that offers none, and a driver that
// names an object before its instance exists.
var DefaultObjects = NewObjects()

// Obtain returns the *T named name, creating it with mk on first use.
// It looks in objs (nil means DefaultObjects), then in DefaultObjects,
// and only then creates the object in objs.
func Obtain[T any](objs *Objects, name string, mk func() *T) *T {
	if objs == nil {
		objs = DefaultObjects
	}
	k := objectKey{reflect.TypeFor[T](), name}
	objs.mu.Lock()
	defer objs.mu.Unlock()
	v, ok := objs.m[k]
	if !ok && objs != DefaultObjects {
		DefaultObjects.mu.Lock()
		v, ok = DefaultObjects.m[k]
		DefaultObjects.mu.Unlock()
	}
	if !ok {
		v = mk()
		objs.m[k] = v
	}
	return v.(*T)
}

// ObjectsOf returns the set of the instance ctx runs in, an optional
// capability of a Context like RunSubmitter: a context without one gets
// DefaultObjects.
func ObjectsOf(ctx Context) *Objects {
	if h, ok := ctx.(interface{ Objects() *Objects }); ok {
		return h.Objects()
	}
	return DefaultObjects
}
