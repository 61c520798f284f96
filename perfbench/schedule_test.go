package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	const window = 15 * time.Second
	a := poissonSchedule(7, 10, window, 0.2, 16, 32)
	b := poissonSchedule(7, 10, window, 0.2, 16, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 10, window, 0.2, 16, 32); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 150 {
		t.Fatalf("%d arrivals, want rate*window = 150", len(a))
	}
	for i, x := range a {
		if x.due < 0 || x.due >= window {
			t.Fatalf("arrival %d due at %v, outside [0, %v)", i, x.due, window)
		}
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
		if x.extent != 16 && x.extent != 32 {
			t.Fatalf("arrival %d has extent %d", i, x.extent)
		}
	}
}

// TestPoissonScheduleShape checks the offered mix and that gaps look
// exponential: their coefficient of variation is near 1 (a fixed-interval
// schedule would give 0).
func TestPoissonScheduleShape(t *testing.T) {
	s := poissonSchedule(1, 100, 100*time.Second, 0.2, 16, 32)
	big := 0
	var gaps []float64
	for i, x := range s {
		if x.extent == 32 {
			big++
		}
		if i > 0 {
			gaps = append(gaps, (x.due - s[i-1].due).Seconds())
		}
	}
	if big != len(s)/5 {
		t.Errorf("%d big jobs of %d, want exactly a fifth", big, len(s))
	}
	mean := sum(gaps) / float64(len(gaps))
	v := 0.0
	for _, g := range gaps {
		v += (g - mean) * (g - mean)
	}
	cv := (v / float64(len(gaps))) / (mean * mean)
	if cv < 0.8 || cv > 1.2 {
		t.Errorf("squared coefficient of variation of gaps %.3f, want about 1", cv)
	}
}
