package main

import (
	"syscall"
	"time"
)

// prSetTimerslack is prctl's PR_SET_TIMERSLACK: how much later than
// asked the kernel may wake this thread so as to batch wake-ups. The
// default of 50 us would be most of the pacer's lateness.
const prSetTimerslack = 29

// preciseSleep lowers the calling thread's timer slack to 1 us and
// returns a function that restores the default. The caller has locked
// the goroutine to its thread.
func preciseSleep() (restore func()) {
	// Failure only leaves the slack as it was; gen.late reports it.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	return func() { _, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0) }
}

// sleep blocks the calling thread in the kernel for d, which wakes it
// with the precision of a high-resolution timer.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		if err := syscall.Nanosleep(&ts, &ts); err != syscall.EINTR {
			return
		}
	}
}
