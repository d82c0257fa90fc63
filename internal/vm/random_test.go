package vm_test

import (
	"math/rand"
	"testing"

	"eol/internal/interp"
	"eol/internal/testsupport"
	"eol/internal/vm"
)

// TestDifferentialRandom fuzzes generated programs through the VM and
// the tree-walking reference in plain and trace mode.
func TestDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		src := testsupport.RandomProgram(rnd, testsupport.GenConfig{})
		input := testsupport.RandomInput(rnd, 8)
		c, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for _, traced := range []bool{false, true} {
			opts := interp.Options{Input: input, BuildTrace: traced}
			vm.CompareResults(t, interp.Run(c, opts), vm.Backend.Run(c, opts))
		}
	}
}
