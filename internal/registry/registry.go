// Package registry is the one named-registry type behind every axis the
// evaluation sweeps: predictors, fabrics, placement policies and schedulers
// each hold their implementations in a Registry. It fixes the contract all
// four share — sorted Names, the empty name resolving to a default, unknown
// names rejected with the whole registry listed, and loud panics on bad
// registrations — so the packages only declare what they store.
package registry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Registry maps names to values of one kind. It is safe for concurrent use;
// registrations normally happen at init time and lookups afterwards.
type Registry[T any] struct {
	pkg, kind, def string

	mu sync.RWMutex
	m  map[string]T
}

// New returns an empty registry. pkg prefixes lookup errors ("predictor"),
// kind is the noun unknown-name errors use ("predictor", "fabric", ...), and
// def is the name the empty string resolves to.
func New[T any](pkg, kind, def string) *Registry[T] {
	return &Registry[T]{pkg: pkg, kind: kind, def: def, m: make(map[string]T)}
}

// Register adds v under name. It panics on an empty name, a nil value, or a
// duplicate registration — registry collisions are programmer errors and
// must fail loudly at init time, not resolve silently to whichever init ran
// last.
func (r *Registry[T]) Register(name string, v T) {
	if name == "" {
		panic(r.pkg + ": Register with empty name")
	}
	if isNil(v) {
		panic(r.pkg + ": Register with nil " + r.kind + " for " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(r.pkg + ": duplicate registration of " + name)
	}
	r.m[name] = v
}

// Resolve returns the effective name: the empty string resolves to the
// default, any other name to itself.
func (r *Registry[T]) Resolve(name string) string {
	if name == "" {
		return r.def
	}
	return name
}

// Names returns the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Check returns nil when name resolves, and otherwise an error naming the
// whole registry, so a typo'd flag tells the user what would have worked.
func (r *Registry[T]) Check(name string) error {
	_, err := r.lookup(name)
	return err
}

// Get returns the value registered under name (the empty name selects the
// default). Its error is Check's, prefixed with the package name.
func (r *Registry[T]) Get(name string) (T, error) {
	v, err := r.lookup(name)
	if err != nil {
		return v, fmt.Errorf("%s: %w", r.pkg, err)
	}
	return v, nil
}

func (r *Registry[T]) lookup(name string) (T, error) {
	r.mu.RLock()
	v, ok := r.m[r.Resolve(name)]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("unknown %s %q (registered: %s)",
			r.kind, name, strings.Join(r.Names(), ", "))
	}
	return v, nil
}

// isNil reports whether v is nil: an untyped nil, or a nil func, map,
// pointer, slice, channel or interface.
func isNil(v any) bool {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Chan, reflect.Func, reflect.Interface, reflect.Map, reflect.Pointer, reflect.Slice:
		return rv.IsNil()
	}
	return false
}
