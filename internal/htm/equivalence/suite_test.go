package equivalence

import (
	"fmt"
	"testing"

	"repro/internal/workloads"
)

// suiteSeeds are the three workload seeds every cell is swept over.
var suiteSeeds = []int64{1, 42, 1337}

// suiteOps keeps each differential cell small enough that the full
// 10 workloads × 3 seeds × 5 variants × 2 engines sweep stays in test
// budget; contention still happens because the thread count does not
// shrink with the op count.
func suiteOps(bench string) int {
	switch bench {
	case "memcached":
		return 0 // queue-driven: use the workload default
	case "labyrinth":
		return 16
	case "genome", "ssca2":
		return 96
	default:
		return 120
	}
}

const suiteThreads = 4

// The suite's 16-thread slice runs at the paper's own thread count, where
// every handoff scans a full set of packed keys, core IDs reach 15, and
// cores finish at widely spread times, none of which the 4-thread matrix
// exercises. It runs in full mode only: one seed, the contended
// workloads, and the plain, staggered and PCT variants.
const t16Seed = 42

var (
	t16Benches  = []string{"list-hi", "tsp", "memcached", "intruder"}
	t16Variants = map[string]bool{"plain": true, "staggered": true, "pct": true}
)

// TestEngineEquivalenceSuite is the differential suite of ISSUE 9: every
// workload × seed × variant must produce byte-identical traces, metrics
// report JSON, statistics, oracle verdicts, and workload verification on
// the cooperative engine and the reference engine. In -short mode one
// seed is swept; the full matrix, plus the 16-thread slice, runs in CI
// via `make equivalence`.
func TestEngineEquivalenceSuite(t *testing.T) {
	seeds := suiteSeeds
	if testing.Short() {
		seeds = suiteSeeds[:1]
	}
	for _, bench := range workloads.Names() {
		for _, seed := range seeds {
			for _, v := range Variants() {
				name := fmt.Sprintf("%s/seed%d/%s", bench, seed, v.Name)
				t.Run(name, func(t *testing.T) {
					rc := Cell(bench, seed, suiteThreads, suiteOps(bench), v)
					if err := Check(name, rc); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	if testing.Short() {
		return
	}
	for _, bench := range t16Benches {
		for _, v := range Variants() {
			if !t16Variants[v.Name] {
				continue
			}
			name := fmt.Sprintf("%s/seed%d/t16/%s", bench, t16Seed, v.Name)
			t.Run(name, func(t *testing.T) {
				rc := Cell(bench, t16Seed, 16, suiteOps(bench), v)
				if err := Check(name, rc); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
