package main

import (
	"runtime"
	"syscall"
	"time"
)

// The Go runtime parks an idle thread in epoll_wait with a millisecond
// timeout, so time.Sleep overshoots a sub-millisecond wait by up to a
// millisecond: useless for a schedule whose requests are 100 us apart.
// The generator's workers therefore sleep in nanosleep(2) on a locked
// thread whose timer slack is cut from the default 50 us to 1 us.

const (
	prSetTimerSlack = 29
	defaultSlackNs  = 50_000
)

// preciseTimers pins the calling goroutine to its thread and tightens that
// thread's timer slack; the returned func undoes both.
func preciseTimers() func() {
	runtime.LockOSThread()
	setTimerSlack(1_000)
	return func() {
		setTimerSlack(defaultSlackNs)
		runtime.UnlockOSThread()
	}
}

func setTimerSlack(ns uintptr) {
	// Best effort: without it sleeps are 50 us coarser, which
	// loadgen.late_p99_ms then shows.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}

// sleepUntil blocks the calling thread until due.
func sleepUntil(due time.Time) {
	for {
		d := time.Until(due)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just loops
	}
}
