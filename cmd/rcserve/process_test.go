package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set to 1, makes the test binary run the rcserve
// command itself (with the binary's arguments as its flags) instead of
// the tests, so a test can drive the real main in a subprocess.
const runMainEnv = "RCSERVE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestMainRepublishesAndDrainsOnSIGINT runs the real command: it trains
// on a small synthetic trace (shorter than five days leaves the
// workload-class model without training samples), serves on a loopback
// port, pushes republished models to a /subscribe stream from its
// ticker, and on SIGINT ends the stream, drains and exits 0 within its
// drain budget.
func TestMainRepublishesAndDrainsOnSIGINT(t *testing.T) {
	const drainBudget = 5 * time.Second
	addr := freeAddr(t)
	cmd := exec.Command(os.Args[0], "-days", "5", "-vms", "800", "-republish", "200ms",
		"-addr", addr, "-shutdown-timeout", drainBudget.String())
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var logs bytes.Buffer
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	defer func() {
		if !stopped {
			_ = cmd.Process.Kill()
			<-exited
			t.Logf("rcserve log:\n%s", logs.String())
		}
	}()

	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			code := resp.StatusCode
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if code == http.StatusOK {
				break
			}
		}
		select {
		case err := <-exited:
			stopped = true
			t.Fatalf("rcserve exited before serving: %v\n%s", err, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("rcserve never answered /healthz")
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(base + "/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan string, 1)
	streamEnded := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sent := false
		for sc.Scan() {
			if !sent && strings.HasPrefix(sc.Text(), "event: ") {
				events <- sc.Text()
				sent = true
			}
		}
		streamEnded <- sc.Err()
	}()
	select {
	case ev := <-events:
		if ev != "event: invalidate" {
			t.Fatalf("first SSE event = %q, want invalidate", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no invalidation event after a republish tick")
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		stopped = true
		if err != nil {
			t.Fatalf("rcserve exit = %v, want status 0\n%s", err, logs.String())
		}
	case <-time.After(drainBudget + 2*time.Second):
		t.Fatal("rcserve did not exit within its drain budget after SIGINT")
	}
	select {
	case <-streamEnded:
	case <-time.After(2 * time.Second):
		t.Error("/subscribe stream stayed open after shutdown")
	}
	for _, want := range []string{"republished models (push update)", "signal received, draining", "drained, closing client"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("rcserve log lacks %q:\n%s", want, logs.String())
		}
	}
}
