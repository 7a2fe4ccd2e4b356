package main

import "testing"

func TestStatCPU(t *testing.T) {
	// A command name with spaces and a closing parenthesis must not
	// shift the fields after it: utime 250 and stime 50 ticks.
	line := "4242 (crc serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 7 0 100 0 0\n"
	got, err := statCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("statCPU = %v s, want 3", got)
	}
	if _, err := statCPU([]byte("4242 (crcserve) S 1 2")); err == nil {
		t.Error("statCPU accepted a short line")
	}
}
