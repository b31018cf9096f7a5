package equivalence

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/workloads"
)

// FuzzEngineEquivalence is FuzzEngineHandoff lifted from synthetic op
// strings to whole experiment cells: the fuzzer picks a workload, seed,
// variant, and thread count, and the cell must be byte-identical across
// the two engines. The seed corpus enumerates the configurations the
// paper table generators sweep (Table 1's benchmarks at one and many
// threads, each suite variant), so minimized counterexamples land in
// the same cell space the experiments use.
func FuzzEngineEquivalence(f *testing.F) {
	// Table 1's row order (the paper's six representative benchmarks),
	// at sequential and contended thread counts — the first cells the
	// paper's evaluation runs.
	names := workloads.Names()
	idx := make(map[string]uint8, len(names))
	for i, n := range names {
		idx[n] = uint8(i)
	}
	for _, bench := range harness.Table1Benchmarks() {
		f.Add(idx[bench], int64(42), uint8(0), uint8(0))
		f.Add(idx[bench], int64(42), uint8(0), uint8(3))
	}
	// Each variant once on the highest-contention benchmark.
	for v := range Variants() {
		f.Add(uint8(0), int64(1), uint8(v), uint8(4))
	}
	f.Fuzz(func(t *testing.T, benchRaw uint8, seed int64, variantRaw uint8, threadsRaw uint8) {
		names := workloads.Names()
		bench := names[int(benchRaw)%len(names)]
		vs := Variants()
		v := vs[int(variantRaw)%len(vs)]
		threads := 1 + int(threadsRaw)%4
		if seed == 0 {
			seed = 42
		}
		ops := suiteOps(bench)
		if ops > 64 {
			ops = 64 // fuzz iterations stay fast; the suite covers depth
		}
		name := fmt.Sprintf("fuzz-%s-seed%d-%s-t%d", bench, seed, v.Name, threads)
		if err := Check(name, Cell(bench, seed, threads, ops, v)); err != nil {
			t.Fatal(err)
		}
	})
}
