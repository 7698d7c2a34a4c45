package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer collects the server's interleaved stdout+stderr under a lock:
// the process writes both streams sequentially, so one combined buffer
// preserves the ordering the drain test asserts on.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestGracefulShutdownOrdering runs the real binary end to end: serve a
// request, send SIGTERM, and assert the exit path is drain-ordered — the
// draining log line, then the structured JSON shutdown record (with the
// drained request counted), then "bye", then exit code 0.
func TestGracefulShutdownOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary; skipped in -short")
	}
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM semantics are POSIX-only")
	}

	bin := filepath.Join(t.TempDir(), "tango-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	var out syncBuffer
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-benchmarks", "LSTM")
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The listener picks its port; read the bound address off the serving
	// log line.
	addrRe := regexp.MustCompile(`serving .* on (\S+) \(`)
	var base string
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("server never logged its address:\n%s", out.String())
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never came up:\n%s", out.String())
		}
	}

	// One completed request before the signal so the drain accounting has
	// something to count.
	resp, err := http.Post(base+"/v1/forecast", "application/json",
		strings.NewReader(`{"benchmark":"LSTM","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forecast status %d", resp.StatusCode)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, out.String())
	}

	log := out.String()
	drainIdx := strings.Index(log, "draining in-flight requests")
	recIdx := strings.Index(log, `"event":"shutdown"`)
	byeIdx := strings.Index(log, "bye")
	if drainIdx < 0 || recIdx < 0 || byeIdx < 0 {
		t.Fatalf("missing drain/record/bye markers:\n%s", log)
	}
	if !(drainIdx < recIdx && recIdx < byeIdx) {
		t.Fatalf("exit path out of order (drain@%d record@%d bye@%d):\n%s",
			drainIdx, recIdx, byeIdx, log)
	}

	var recLine string
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, `"event":"shutdown"`) {
			recLine = line
			break
		}
	}
	var rec struct {
		Event     string  `json:"event"`
		Reason    string  `json:"reason"`
		ExitCode  int     `json:"exit_code"`
		UptimeS   float64 `json:"uptime_s"`
		Completed uint64  `json:"completed"`
		InFlight  int64   `json:"in_flight"`
		Models    map[string]struct {
			Submitted uint64 `json:"submitted"`
			Completed uint64 `json:"completed"`
			Batches   uint64 `json:"batches"`
		} `json:"models"`
	}
	if err := json.Unmarshal([]byte(recLine), &rec); err != nil {
		t.Fatalf("shutdown record is not valid JSON: %v\n%q", err, recLine)
	}
	if rec.Event != "shutdown" || rec.Reason != "signal" || rec.ExitCode != 0 {
		t.Fatalf("shutdown record = %+v, want event=shutdown reason=signal exit 0", rec)
	}
	if rec.Completed < 1 || rec.InFlight != 0 || rec.UptimeS <= 0 {
		t.Fatalf("shutdown record accounting = %+v", rec)
	}
	if m, ok := rec.Models["LSTM"]; !ok || m.Submitted != 1 || m.Completed != 1 || m.Batches < 1 {
		t.Fatalf("shutdown record's LSTM row = %+v (present %v), want submitted 1, completed 1, batches >= 1", m, ok)
	}
}
