package main

import "testing"

func TestNearestRank(t *testing.T) {
	d := dist{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := d.pct(c.q); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (dist{}).pct(0.5); got != 0 {
		t.Errorf("empty pct = %v, want 0", got)
	}
	if got := (dist{7}).pct(0.99); got != 7 {
		t.Errorf("single pct = %v, want 7", got)
	}
}

func TestBeyondRule(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{100, 0.9, 10, true},
		{99, 0.9, 9, false},
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{40, 0.75, 10, true},
		{39, 0.75, 9, false},
		{20, 0.5, 10, true},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := resolvable(c.n, c.q); got != c.ok {
			t.Errorf("resolvable(%d, %v) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
}
