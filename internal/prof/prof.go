// Package prof wires the standard pprof file profiles into the
// benchmark commands (benchmux, benchscale): importing it
// registers -cpuprofile/-memprofile on the default flag set, so perf
// investigations run the shipped harnesses under the profiler instead
// of requiring ad-hoc harness edits.
package prof

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	cpu = flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
	mem = flag.String("memprofile", "", "write a pprof heap profile to `file` on exit")
)

// Start begins CPU profiling if -cpuprofile was given; call it right
// after flag.Parse. The returned stop function ends the CPU profile
// and writes the heap profile if -memprofile was given — run it once,
// immediately before the process exits normally (a profile from a
// run that died mid-measurement would mislead more than it informs).
func Start() (stop func() error, err error) {
	var cpuF *os.File
	if *cpu != "" {
		if cpuF, err = os.Create(*cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if *mem != "" {
			f, err := os.Create(*mem)
			if err != nil {
				return err
			}
			defer f.Close()
			// Collect first so the profile shows the steady-state live
			// set, not whatever garbage the last iteration left behind.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}
