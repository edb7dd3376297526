package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles creates both profile files before the command runs, so
// an unwritable path costs no run, starts the CPU profile, and returns
// the function that flushes and closes what was opened. An empty path
// means no such profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			if cpu != nil {
				cpu.Close()
			}
			return nil, err
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // so the heap profile shows what is live, not what is garbage
			errs = append(errs, pprof.WriteHeapProfile(mem), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}
