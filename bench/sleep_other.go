//go:build !linux

package main

import "time"

func preciseSleep() (restore func()) { return func() {} }

func sleep(d time.Duration) { time.Sleep(d) }
