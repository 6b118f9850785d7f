package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/journal"
)

// TestMain doubles as the tables binary: when re-executed with
// TABLES_HELPER=1 the test process runs main() with whatever flags the test
// passed, so the drills below exercise the real command — flag parsing,
// journal creation, crash injection and process death included.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTables re-executes the test binary as the tables command.
func runTables(t *testing.T, env []string, args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TABLES_HELPER=1")
	cmd.Env = append(cmd.Env, env...)
	var out, serr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &serr
	err = cmd.Run()
	return out.Bytes(), serr.Bytes(), err
}

func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return 0
}

// TestKillAndResume is Table 4.1's crash drill end to end: a journaled
// subprocess is killed at an injected crash point right after a journal
// append, then resumed with -resume; the resumed -json output must be
// byte-identical to an uninterrupted run of the same spec.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	args := []string{"-t", "4.1", "-refs", "100000", "-reps", "2", "-seed", "7", "-par", "2", "-json"}

	baseline, stderr, err := runTables(t, nil, args...)
	if err != nil {
		t.Fatalf("uninterrupted table 4.1: %v; stderr:\n%s", err, stderr)
	}
	if !bytes.Contains(baseline, []byte("Table 4.1")) {
		t.Fatalf("uninterrupted run printed no Table 4.1:\n%s", baseline)
	}

	// Crash after the fifth journal append: the process dies mid-table with
	// the journal holding a strict partial.
	jpath := filepath.Join(t.TempDir(), "t41.journal")
	_, stderr, err = runTables(t,
		[]string{faultinject.CrashEnv + "=" + string(faultinject.CrashPostJournalAppend) + ":5"},
		append(args, "-journal", jpath)...)
	if code := exitCode(err); code != faultinject.CrashExitCode {
		t.Fatalf("crash-armed run exit code = %d, want %d; stderr:\n%s", code, faultinject.CrashExitCode, stderr)
	}
	rep, err := journal.Replay(jpath)
	if err != nil {
		t.Fatalf("replaying the crashed run's journal: %v", err)
	}
	// 2 workloads x 3 sizes x 3 policies x 2 reps.
	if n := len(rep.Entries); n == 0 || n >= 36 {
		t.Fatalf("crashed journal holds %d records, want a strict partial of 36", n)
	}

	// Resume: the journaled runs are reused, the rest recomputed, and the
	// JSON matches the uninterrupted run byte for byte.
	resumed, stderr, err := runTables(t, nil, append(args, "-resume", jpath)...)
	if err != nil {
		t.Fatalf("resumed table 4.1: %v; stderr:\n%s", err, stderr)
	}
	if !bytes.Equal(resumed, baseline) {
		t.Fatalf("resumed JSON differs from uninterrupted run:\n%s\nvs\n%s", resumed, baseline)
	}
}

// TestFlagValidation covers the flag combinations that must be rejected
// before any simulation starts.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-journal", filepath.Join(dir, "a")},
		{"-journal", filepath.Join(dir, "a"), "-t", "3.3"},
		{"-resume", filepath.Join(dir, "a"), "-t", "3.5"},
		{"-sample"},
		{"-sample", "-t", "3.3"},
		{"-t", "4.1", "-journal", filepath.Join(dir, "a"), "-resume", filepath.Join(dir, "b")},
		{"-t", "4.1", "-intervals", "8"},
		{"-t", "4.1", "-sample", "-remote", "http://127.0.0.1:1"},
		{"-t", "4.1", "-journal", filepath.Join(dir, "a"), "-remote", "http://127.0.0.1:1"},
		{"-par", "0"},
		{"-refs", "-1"},
	}
	for _, args := range cases {
		_, stderr, err := runTables(t, nil, args...)
		if code := exitCode(err); code != 2 {
			t.Errorf("tables %v exit code = %d, want 2; stderr:\n%s", args, code, stderr)
		}
	}
	// Nothing was journaled by a rejected invocation.
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected invocations left %d files behind", len(entries))
	}
	// A malformed SPUR_CRASH value must be rejected, not ignored.
	_, stderr, err := runTables(t, []string{faultinject.CrashEnv + "=bogus"}, "-t", "2.1")
	if code := exitCode(err); code != 2 {
		t.Errorf("tables with bad %s exit code = %d, want 2; stderr:\n%s", faultinject.CrashEnv, code, stderr)
	}
}
