package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"porcupine/internal/ring"
)

// smokeConfig shrinks every workload to the test-only parameter set,
// two kernels and three-second windows; the only synthesis left is of
// the two kernels whose search takes under a millisecond.
func smokeConfig(t *testing.T) *config {
	return &config{
		seconds:        3 * time.Second,
		setupReps:      2,
		procs:          2,
		scratch:        t.TempDir(),
		compileKernels: []string{"box-blur", "linear-regression"},
		shallowPreset:  "PN2048",
		deepPreset:     "PN2048",
		stencil:        servingSpec{preset: "PN2048", kernels: []string{"box-blur", "gx"}, mux: true},
		deep:           servingSpec{preset: "PN2048", kernels: []string{"roberts-cross", "polynomial-regression"}},
		burst:          servingSpec{preset: "PN2048", kernels: []string{"hamming-distance", "l2-distance"}, mux: true},
		burstRate:      8, // one burst a second: the race detector slows the server tenfold
		minSamples:     1,
		maxLateMs:      1000, // a loaded test host may hold the generator back
	}
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload untraced and traced, and holds the
// metrics they report against the lists BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	nameSyntax := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	before := runtime.NumGoroutine()
	cfg := smokeConfig(t)
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, decl.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := w.run(cfg, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			line := report(w.name, res, traced)
			if !line.Correct {
				t.Errorf("%s traced=%v: incorrect run: %d of %d failed (%v), invalid: %v",
					w.name, traced, line.Failed, line.Attempted, res.firstErr, res.invalid)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				switch {
				case !nameSyntax.MatchString(d.Name):
					t.Errorf("metric name %q is outside the allowed syntax", d.Name)
				case !ok:
					t.Errorf("%s traced=%v: declared metric %q not reported", w.name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: metric %q has unit %q, declared %q", w.name, d.Name, got.Unit, d.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %q is %v, must be positive", w.name, d.Name, got.Value)
				}
			}
		}
	}

	// Everything the workloads started must be gone; the ring package's
	// worker pool is process-wide and stays.
	limit := before + ring.PoolSize()
	for wait := 0; runtime.NumGoroutine() > limit; wait++ {
		if wait == 40 {
			t.Fatalf("%d goroutines left after the run, %d before it plus a pool of %d", runtime.NumGoroutine(), before, ring.PoolSize())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSelfTimes checks the rule that a span's self time excludes the
// interval its children cover, overlapping children counted once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.begin("root", 0, -1, at(0))
	a := tr.begin("a", 0, root, at(10))
	b := tr.begin("b", 0, root, at(20))
	tr.end(a, at(30))
	tr.end(b, at(50))
	tr.end(root, at(100))
	tr.end(tr.begin("setup", notOp, -1, at(0)), at(500))
	self, ops := tr.selfTimes()
	if ops != 1 || len(self) != 3 {
		t.Fatalf("got %d operations and spans %v, want 1 operation and 3 span names", ops, self)
	}
	for name, want := range map[string]float64{"root": 60, "a": 20, "b": 30} {
		if got := self[name][0]; got != want {
			t.Errorf("self time of %s = %v ms, want %v", name, got, want)
		}
	}
}
