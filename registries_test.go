package ibpower_test

import (
	"strings"
	"testing"

	"ibpower/internal/multijob"
	"ibpower/internal/predictor"
	"ibpower/internal/scenario"
	"ibpower/internal/topology"
)

// TestUnknownNameLookupErrors pins the exact error a named lookup returns
// for an unregistered name, once per registry: the owning package's prefix
// exactly once, then the registry's unknown-name message listing every
// registered name.
func TestUnknownNameLookupErrors(t *testing.T) {
	const bogus = "nosuch"
	for _, tc := range []struct {
		prefix, kind string
		names        func() []string
		lookup       func() error
	}{
		{"predictor", "predictor", predictor.Names, func() error {
			_, err := predictor.NewNamed(bogus, predictor.Config{})
			return err
		}},
		{"topology", "fabric", topology.Names, func() error {
			_, err := topology.Named(bogus)
			return err
		}},
		{"multijob", "placement", multijob.Names, func() error {
			_, err := multijob.Place(bogus, topology.Paper(), []int{8}, 0)
			return err
		}},
		{"scenario", "scheduler", scenario.Names, func() error {
			_, err := scenario.Named(bogus)
			return err
		}},
	} {
		want := tc.prefix + `: unknown ` + tc.kind + ` "` + bogus + `" (registered: ` +
			strings.Join(tc.names(), ", ") + ")"
		if err := tc.lookup(); err == nil || err.Error() != want {
			t.Errorf("%s lookup: error %v, want %q", tc.prefix, err, want)
		}
	}
}
