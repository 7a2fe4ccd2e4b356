package main

import (
	"errors"
	"sync"
	"testing"
)

func TestFailedFracCountsErrorsAndWrongAnswers(t *testing.T) {
	var tl Tally
	if tl.failedFrac() != 1 {
		t.Errorf("a run that attempted nothing must count as failed, got %v", tl.failedFrac())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch {
				case g == 0 && i < 2:
					tl.Op(errors.New("status 500")) // failed call
				case g == 1 && i < 3:
					tl.Check(false, "checksum %d wrong", i) // wrong answer
				case i%2 == 0:
					tl.Check(true, "unused")
				default:
					tl.Op(nil)
				}
			}
		}(g)
	}
	wg.Wait()
	a, f := tl.counts()
	if a != 100 || f != 5 || tl.failedFrac() != 0.05 {
		t.Errorf("attempted %d failed %d frac %v, want 100 5 0.05", a, f, tl.failedFrac())
	}
	if len(tl.errors()) != 5 {
		t.Errorf("kept %d failure messages, want 5", len(tl.errors()))
	}
}

func TestProjectRequiresEveryDeclaredMetric(t *testing.T) {
	specs := []MetricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	if _, err := project(specs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was not reported")
	}
	m, err := project(specs, map[string]float64{"a": 1, "b": 2, "extra": 3})
	if err != nil || len(m) != 2 || m["b"] != (Metric{2, "ms"}) {
		t.Errorf("project = %v, %v", m, err)
	}
}
