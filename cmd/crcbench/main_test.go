package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateCheckedInReports keeps the tracked trajectory valid. The
// older files carry rows for kernels that no longer exist (slicing8,
// chorba) and an auto_profile section the sweep no longer writes.
func TestValidateCheckedInReports(t *testing.T) {
	for _, name := range []string{"BENCH_PR6.json", "BENCH_PR8.json", "BENCH_PR9.json", "BENCH_PR10.json"} {
		if err := validateReport(filepath.Join("..", "..", name), io.Discard); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQuickReportValidates runs the CI smoke sweep and validates what it
// writes.
func TestQuickReportValidates(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-quick", "-o", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := validateReport(out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep Report
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.AutoKernel != "hardware" {
		t.Errorf("auto_kernel for %s = %q, want hardware", rep.Algorithm, rep.AutoKernel)
	}
}

// TestValidateRejectsUnknownKernel: only the retired kernel names are
// tolerated as history; any other unknown name fails validation.
func TestValidateRejectsUnknownKernel(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_PR6.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Results {
		if rep.Results[i].Kernel == "chorba" {
			rep.Results[i].Kernel = "warpdrive"
		}
	}
	bogus, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bogus.json")
	if err := os.WriteFile(path, bogus, 0o644); err != nil {
		t.Fatal(err)
	}
	err = validateReport(path, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "warpdrive") {
		t.Fatalf("validateReport with kernel warpdrive = %v, want an unknown-kind error", err)
	}
}
