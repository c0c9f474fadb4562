package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFlagCombinationsRefused builds the binary and checks that flag
// combinations which would otherwise be silently ignored exit 1 with
// a message before any fleet is generated or port opened. A binary
// that accepts the flags would start serving; the timeout turns that
// into a failure instead of a hang.
func TestFlagCombinationsRefused(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "vup-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
