package service

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestCellNormalization pins CellSpec.normalized and cellKey: every
// spelling of one cell normalizes to one canonical spec, and so to one
// durable-store key; invalid cells are rejected with a reason.
func TestCellNormalization(t *testing.T) {
	canon := CellSpec{Bench: "list-hi", Mode: "staggered", Threads: 4, Seed: 42}
	withChaos := func(c CellSpec, seed int64, watchdog uint64) CellSpec {
		c.ChaosRate, c.ChaosSeed, c.Watchdog = 0.01, seed, watchdog
		return c
	}
	seeded := canon
	seeded.Seed = 7
	limited := canon
	limited.Backend, limited.Capacity = "limited", 8

	tests := []struct {
		name     string
		in       CellSpec
		expected CellSpec
		err      string // non-empty: the cell must be rejected with this text
	}{
		{name: "defaults", in: CellSpec{Bench: "list-hi"}, expected: canon},
		{name: "mode hw", in: CellSpec{Bench: "list-hi", Mode: "hw"}, expected: canon},
		{name: "mode StaggeredHW", in: CellSpec{Bench: "list-hi", Mode: "StaggeredHW"}, expected: canon},
		{name: "defaults spelled out", in: CellSpec{Bench: "list-hi", Seed: 42, Threads: 4}, expected: canon},
		{name: "mode sw", in: CellSpec{Bench: "list-hi", Mode: "Staggered+SW"},
			expected: CellSpec{Bench: "list-hi", Mode: "sw", Threads: 4, Seed: 42}},
		{name: "chaos defaults", in: CellSpec{Bench: "list-hi", ChaosRate: 0.01},
			expected: withChaos(canon, 42, harness.ChaosWatchdog)},
		{name: "chaos defaults spelled out",
			in:       CellSpec{Bench: "list-hi", ChaosRate: 0.01, ChaosSeed: 42, Watchdog: harness.ChaosWatchdog},
			expected: withChaos(canon, 42, harness.ChaosWatchdog)},
		{name: "chaos seed follows seed", in: CellSpec{Bench: "list-hi", Seed: 7, ChaosRate: 0.01},
			expected: withChaos(seeded, 7, harness.ChaosWatchdog)},
		{name: "chaos keeps its watchdog", in: CellSpec{Bench: "list-hi", ChaosRate: 0.01, Watchdog: 5000},
			expected: withChaos(canon, 42, 5000)},
		{name: "chaos_rate 0 clears chaos_seed", in: CellSpec{Bench: "list-hi", ChaosSeed: 9}, expected: canon},
		{name: "limited capacity", in: CellSpec{Bench: "list-hi", Backend: "limited", Capacity: 8}, expected: limited},

		{name: "missing bench", in: CellSpec{}, err: "bench is required"},
		{name: "unknown bench", in: CellSpec{Bench: "nope"}, err: "nope"},
		{name: "unknown mode", in: CellSpec{Bench: "list-hi", Mode: "warp"}, err: "unknown mode"},
		{name: "unknown backend", in: CellSpec{Bench: "list-hi", Backend: "bogus"}, err: "unknown backend"},
		{name: "capacity without backend", in: CellSpec{Bench: "list-hi", Capacity: 8}, err: "capacity"},
		{name: "capacity on occ", in: CellSpec{Bench: "list-hi", Backend: "occ", Capacity: 8}, err: "capacity"},
		{name: "negative capacity", in: CellSpec{Bench: "list-hi", Backend: "limited", Capacity: -1}, err: "capacity"},
		{name: "negative threads", in: CellSpec{Bench: "list-hi", Threads: -1}, err: "threads"},
		{name: "chaos_rate above 1", in: CellSpec{Bench: "list-hi", ChaosRate: 1.5}, err: "chaos_rate"},
		{name: "negative chaos_rate", in: CellSpec{Bench: "list-hi", ChaosRate: -0.1}, err: "chaos_rate"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, _, err := tc.in.normalized()
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("normalized() error = %v, want one mentioning %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.expected {
				t.Fatalf("normalized() = %+v, want %+v", got, tc.expected)
			}
			if k, want := cellKey(got), cellKey(tc.expected); k != want {
				t.Fatalf("cellKey = %s, want %s", k, want)
			}
			if again, _, _ := got.normalized(); again != got {
				t.Fatalf("normalization not idempotent: %+v -> %+v", got, again)
			}
		})
	}
}

// TestExploreJobHonoursCellWatchdog: an explore job runs its whole cell,
// so a watchdog set on the cell trips inside the explored schedules and
// fails the job, instead of being written into the store key and dropped.
func TestExploreJobHonoursCellWatchdog(t *testing.T) {
	s := newT(t, Config{})
	var spec JobSpec
	raw := `{"explore":{"cell":{"bench":"list-hi","threads":4,"ops":120,"watchdog":2000},"runs":2}}`
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != JobFailed || !strings.Contains(st.Error, "watchdog") {
		t.Fatalf("explore job ended %s (%q), want failed with the watchdog error", st.State, st.Error)
	}
}
