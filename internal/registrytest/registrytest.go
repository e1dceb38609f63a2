// Package registrytest is the shared property test every named registry in
// the module must pass: predictors, fabrics, placements, and schedulers all
// follow one contract (sorted Names, CheckRegistered round-trip, the empty
// name resolving to a default, unknown names rejected with the registry
// listed, and loud panics on bad registrations), and this package pins that
// contract once instead of four hand-rolled near-copies drifting apart.
package registrytest

import (
	"fmt"
	"strings"
	"testing"
)

// Registry adapts one named registry to the shared property test. Every
// field is required. RegisterValid must install a fully working
// implementation (typically delegating to the registry's default): the
// property test leaves it registered, and later tests that iterate Names()
// will exercise it.
type Registry struct {
	// Kind is the noun the registry's unknown-name errors use, e.g.
	// "predictor", "fabric", "placement", "scheduler".
	Kind string
	// Default is the name the empty string resolves to.
	Default string
	// Names lists registered names; Check is the registry's CheckRegistered.
	Names func() []string
	Check func(name string) error
	// RegisterValid registers a working implementation under name;
	// RegisterNil attempts to register a nil implementation.
	RegisterValid func(name string)
	RegisterNil   func(name string)
}

// Run asserts the registry contract. The throwaway names it registers stay
// registered for the remainder of the test binary, so a second Run reuses
// them.
func Run(t *testing.T, r Registry) {
	t.Helper()

	t.Run("names-sorted-unique", func(t *testing.T) {
		names := r.Names()
		if len(names) == 0 {
			t.Fatal("registry is empty")
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Fatalf("Names() not sorted or not unique: %v", names)
			}
		}
		found := false
		for _, n := range names {
			found = found || n == r.Default
		}
		if !found {
			t.Fatalf("default %q not in Names() %v", r.Default, names)
		}
	})

	t.Run("roundtrip", func(t *testing.T) {
		for _, n := range r.Names() {
			if err := r.Check(n); err != nil {
				t.Errorf("listed name %q does not check: %v", n, err)
			}
		}
		if err := r.Check(""); err != nil {
			t.Errorf("empty name must resolve to the default %q: %v", r.Default, err)
		}
	})

	t.Run("unknown-name-lists-registry", func(t *testing.T) {
		const bogus = "registrytest-nosuch"
		err := r.Check(bogus)
		if err == nil {
			t.Fatalf("unknown name %q accepted", bogus)
		}
		want := fmt.Sprintf("unknown %s %q (registered: %s)",
			r.Kind, bogus, strings.Join(r.Names(), ", "))
		if msg := err.Error(); msg != want {
			t.Errorf("error %q, want %q", msg, want)
		}
	})

	t.Run("register-panics", func(t *testing.T) {
		mustPanic := func(label string, fn func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("Register with %s did not panic", label)
				}
			}()
			fn()
		}
		mustPanic("empty name", func() { r.RegisterValid("") })
		mustPanic("nil implementation", func() { r.RegisterNil("registrytest-nil-" + r.Kind) })
		mustPanic("duplicate name", func() { r.RegisterValid(r.Default) })
	})

	t.Run("new-registration-roundtrips", func(t *testing.T) {
		name := "registrytest-extra-" + r.Kind
		// A repeated run in the same binary (go test -count=N) finds the
		// name already registered; registering it again would panic.
		if r.Check(name) != nil {
			r.RegisterValid(name)
		}
		if err := r.Check(name); err != nil {
			t.Fatalf("freshly registered %q does not check: %v", name, err)
		}
		found := false
		for _, n := range r.Names() {
			found = found || n == name
		}
		if !found {
			t.Errorf("freshly registered %q missing from Names() %v", name, r.Names())
		}
	})
}
