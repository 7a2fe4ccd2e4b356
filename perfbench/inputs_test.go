package main

import (
	"bytes"
	"reflect"
	"testing"
)

// The same seed must give the same inputs, and another seed other ones.
func TestInputsDependOnlyOnSeed(t *testing.T) {
	seqOf := func(seed int64) []int {
		keys, err := anKeys(seed)
		if err != nil {
			t.Fatal(err)
		}
		return anSequence(seed, keys)
	}
	if !reflect.DeepEqual(seqOf(7), seqOf(7)) || reflect.DeepEqual(seqOf(7), seqOf(8)) {
		t.Error("analysis sequence is not a function of the seed")
	}
	if !reflect.DeepEqual(table1Jobs(7), table1Jobs(7)) || reflect.DeepEqual(table1Jobs(7), table1Jobs(8)) {
		t.Error("table1 jobs are not a function of the seed")
	}
	if !reflect.DeepEqual(newSearchJobs(7).next(), newSearchJobs(7).next()) || reflect.DeepEqual(newSearchJobs(7).next(), newSearchJobs(8).next()) {
		t.Error("search jobs are not a function of the seed")
	}
	a, err := ckSequence(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ckSequence(7)
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].path != b[i].path {
			t.Fatalf("checksum request %d differs between two builds from one seed", i)
		}
	}
}
