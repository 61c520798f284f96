package main

import "testing"

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name                             string
		procs, crashRank, extent, levels int
		ok                               bool
	}{
		{"defaults", 16, -1, 100, 3, true},
		{"smallest", 2, 1, 2, 1, true},
		{"root-crash", 4, 0, 16, 2, true},
		{"zero-procs", 0, -1, 16, 2, false},
		{"one-proc", 1, -1, 16, 2, false},
		{"crash-rank-past-end", 4, 9, 16, 2, false},
		{"crash-rank-equals-procs", 4, 4, 16, 2, false},
		{"crash-rank-below-minus-one", 4, -2, 16, 2, false},
		{"zero-extent", 4, -1, 0, 2, false},
		{"unit-extent", 4, -1, 1, 1, false},
		{"zero-levels", 4, -1, 16, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.procs, tc.crashRank, tc.extent, tc.levels)
			if (err == nil) != tc.ok {
				t.Fatalf("validateFlags(%d, %d, %d, %d) = %v, want ok=%v",
					tc.procs, tc.crashRank, tc.extent, tc.levels, err, tc.ok)
			}
		})
	}
}
