package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsUnknownTableAndFigure runs the built command: a -table or
// -figure the paper does not have is a usage error (exit 2, nothing on
// stdout), not a silent empty run, while a valid selection still prints.
func TestRejectsUnknownTableAndFigure(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "paper")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building paper: %v\n%s", err, out)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("paper %v: %v", args, err)
		}
		return o.String(), e.String(), code
	}
	for _, args := range [][]string{
		{"-table", "5"}, {"-table", "-1"}, {"-figure", "9"}, {"-figure", "6"}, {"-figure", "1"},
	} {
		stdout, stderr, code := run(args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-table must be 1-4") {
			t.Errorf("paper %v: exit %d, stdout %q, stderr %q; want a usage error (exit 2)",
				args, code, stdout, stderr)
		}
	}
	stdout, _, code := run("-table", "2")
	if code != 0 || !strings.Contains(stdout, "Table 2") {
		t.Errorf("paper -table 2: exit %d, stdout %q; want Table 2", code, stdout)
	}
}
