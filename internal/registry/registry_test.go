package registry

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentLookups runs Get and Names while Register adds entries, so
// the race detector covers the registry's locking. The contract itself is
// pinned through the four registries built on this type (registrytest).
func TestConcurrentLookups(t *testing.T) {
	r := New[func() int]("registry", "widget", "w000")
	r.Register("w000", func() int { return 0 })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := r.Get(""); err != nil {
					t.Error(err)
					return
				}
				r.Names()
			}
		}()
	}
	for i := 1; i <= 100; i++ {
		r.Register(fmt.Sprintf("w%03d", i), func() int { return i })
	}
	wg.Wait()
	if n := len(r.Names()); n != 101 {
		t.Errorf("%d names registered, want 101", n)
	}
}
