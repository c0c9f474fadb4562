package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"vup/internal/fstore"
)

// buildServer compiles the command into a temporary directory.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vup-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagCombinationsRefused builds the binary and checks that flag
// combinations which would otherwise be silently ignored exit 1 with
// a message before any fleet is generated or port opened. A binary
// that accepts the flags would start serving; the timeout turns that
// into a failure instead of a hang.
func TestFlagCombinationsRefused(t *testing.T) {
	bin := buildServer(t)
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"resident budget without lazy load", []string{"-resident-budget", "1048576"}, "-resident-budget requires -lazy-load"},
		{"resident budget with data dir only", []string{"-data-dir", t.TempDir(), "-resident-budget", "1"}, "-resident-budget requires -lazy-load"},
		{"lazy load without data dir", []string{"-lazy-load"}, "-lazy-load requires -data-dir"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...).CombinedOutput()
			exit, ok := err.(*exec.ExitError)
			if !ok || exit.ExitCode() != 1 {
				t.Fatalf("err = %v, want exit status 1\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// bootResult is what one boot of the server answered.
type bootResult struct {
	vehicles []byte // GET /v1/vehicles body
	health   struct {
		LazyLoad      bool `json:"lazy_load"`
		TotalVehicles int  `json:"total_vehicles"`
	}
}

// boot starts the binary with args on a free loopback port, waits for
// /healthz, reads /v1/vehicles and /healthz, then stops the server
// with SIGTERM and requires exit status 0.
func boot(t *testing.T, bin string, args ...string) bootResult {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	base := fmt.Sprintf("http://127.0.0.1:%d", port)

	logPath := filepath.Join(t.TempDir(), "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	log := func() string { data, _ := os.ReadFile(logPath); return string(data) }
	cmd := exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-trace-buffer", "0"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	var waitErr error
	go func() { waitErr = cmd.Wait(); close(exited) }()
	defer func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill()
			<-exited
		}
	}()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v\n%s", path, resp.StatusCode, err, body)
		}
		return body
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-exited:
			t.Fatalf("vup-server %v exited during boot: %v\n%s", args, waitErr, log())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("vup-server %v did not answer /healthz within 10s\n%s", args, log())
		}
		time.Sleep(20 * time.Millisecond)
	}

	var res bootResult
	res.vehicles = get("/v1/vehicles")
	if err := json.Unmarshal(get("/healthz"), &res.health); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("vup-server %v after SIGTERM: %v, want exit status 0\n%s", args, waitErr, log())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("vup-server %v did not exit within 10s of SIGTERM\n%s", args, log())
	}
	return res
}

// TestBootFromDataDir drives the boot rule: a fleet is generated and
// saved only into a directory without a manifest, and every later
// boot, eager or lazy, serves what the directory holds. The reboots
// ask for a different fleet size, which they must ignore.
func TestBootFromDataDir(t *testing.T) {
	bin := buildServer(t)

	t.Run("generate then reboot eager and lazy", func(t *testing.T) {
		dataDir := t.TempDir()
		runs := []struct {
			name string
			args []string
			lazy bool
		}{
			{"first run", []string{"-units", "3", "-days", "200"}, false},
			{"eager reboot", []string{"-units", "1", "-days", "200"}, false},
			{"lazy reboot", []string{"-units", "1", "-days", "200", "-lazy-load"}, true},
		}
		var first bootResult
		for i, run := range runs {
			res := boot(t, bin, append([]string{"-data-dir", dataDir}, run.args...)...)
			if res.health.LazyLoad != run.lazy {
				t.Errorf("%s: lazy_load = %v, want %v", run.name, res.health.LazyLoad, run.lazy)
			}
			if i == 0 {
				first = res
				if first.health.TotalVehicles != 3 {
					t.Fatalf("%s: total_vehicles = %d, want 3", run.name, first.health.TotalVehicles)
				}
				continue
			}
			if res.health.TotalVehicles != first.health.TotalVehicles {
				t.Errorf("%s: total_vehicles = %d, first run had %d", run.name, res.health.TotalVehicles, first.health.TotalVehicles)
			}
			if !bytes.Equal(res.vehicles, first.vehicles) {
				t.Errorf("%s: /v1/vehicles differs from the first run:\n  got:   %s\n  first: %s", run.name, res.vehicles, first.vehicles)
			}
		}
	})

	t.Run("saved empty fleet", func(t *testing.T) {
		dataDir := t.TempDir()
		dir, err := fstore.Open(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Save(nil); err != nil {
			t.Fatal(err)
		}
		if err := dir.Close(); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{nil, {"-lazy-load"}} {
			res := boot(t, bin, append([]string{"-data-dir", dataDir, "-units", "2", "-days", "200"}, args...)...)
			if got := strings.TrimSpace(string(res.vehicles)); got != "[]" || res.health.TotalVehicles != 0 {
				t.Errorf("%v: /v1/vehicles = %s, total_vehicles = %d; want [] and 0", args, got, res.health.TotalVehicles)
			}
		}
	})
}
