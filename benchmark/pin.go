package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that has already confined itself to one CPU
// (and carries that CPU's number), so the re-executed program does not
// do it again.
const pinnedEnv = "NSQLBENCH_CPU"

// pinToOneCPU confines the whole process to the first CPU it is allowed
// to run on. It narrows the calling thread's affinity and re-executes
// the program, so every thread the Go runtime ever starts inherits the
// mask and runtime.NumCPU reads 1.
//
// The machines this benchmark runs on give a virtual machine a few
// virtual CPUs of a shared host, and the host often runs two of them on
// one core: anything that keeps two threads busy then runs at full
// speed or at half, for seconds to minutes at a time (SPREAD.md). One
// busy thread is not affected, so the benchmark measures the program on
// one CPU, clients and server alike.
//
// It returns the CPU's number, or -1 when the mask could not be read or
// set (the run then goes ahead unpinned and says so).
func pinToOneCPU() int {
	if v := os.Getenv(pinnedEnv); v != "" {
		if cpu, err := strconv.Atoi(v); err == nil {
			return cpu
		}
		return -1
	}
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		runtime.UnlockOSThread()
		return -1
	}
	cpu := -1
	for w, bits := range mask {
		for b := 0; b < 64 && cpu < 0; b++ {
			if bits&(1<<b) != 0 {
				cpu = w*64 + b
			}
		}
	}
	if cpu < 0 {
		runtime.UnlockOSThread()
		return -1
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		runtime.UnlockOSThread()
		return -1
	}
	self, err := os.Executable()
	if err != nil {
		return -1
	}
	env := append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu))
	// Exec runs on this locked thread, whose mask the new image keeps.
	_ = syscall.Exec(self, os.Args, env)
	return -1 // exec failed: this thread is pinned, the others are not
}
