package main

import (
	"bytes"
	"testing"
)

// Same seed, byte-identical inputs; another seed, other inputs.
func TestInputsFollowTheSeed(t *testing.T) {
	gens := map[string]func(seed uint64) []byte{
		"guest-compute":  func(s uint64) []byte { return genComputeInputs(s).bytes() },
		"exit-storm":     func(s uint64) []byte { return words32(stormOrder(s)) },
		"traffic-steady": func(s uint64) []byte { return genTrafficInputs(s, 100).bytes() },
		"fleet-churn":    func(s uint64) []byte { return genChurnInputs(s, 50).bytes() },
	}
	for name, gen := range gens {
		a, b := gen(7), gen(7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		differs := false
		for seed := uint64(8); seed < 12; seed++ { // exit-storm has only 120 orders to draw from
			differs = differs || !bytes.Equal(a, gen(seed))
		}
		if !differs {
			t.Errorf("%s: seeds 7 to 11 all generated the same inputs", name)
		}
	}
}

// A mixed table holds the same multiset for every seed: seeds change the
// order of the work, not its amount.
func TestMixKeepsTheMultiset(t *testing.T) {
	count := func(t []int) map[int]int {
		m := map[int]int{}
		for _, v := range t {
			m[v]++
		}
		return m
	}
	a := count(newRNG(1, "x").mix(1000, trPayloads))
	b := count(newRNG(2, "x").mix(1000, trPayloads))
	for _, v := range trPayloads {
		if a[v] != b[v] || a[v] < 333 {
			t.Errorf("value %d appears %d and %d times", v, a[v], b[v])
		}
	}
}
