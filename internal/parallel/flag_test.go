package parallel

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// applyArgs parses args into a fresh flag set and applies them; parse
// errors come back as the error.
func applyArgs(t *testing.T, args ...string) (int, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	w := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	return w.Apply()
}

func TestWorkersFlag(t *testing.T) {
	defer SetWorkers(0)
	cases := []struct {
		args    []string
		want    int
		wantErr string // substring of the expected error; "" = none
	}{
		{nil, 0, ""},
		{[]string{"-workers", "4"}, 4, ""},
		{[]string{"-workers", "-1"}, 0, "-workers must be >= 0"},
		{[]string{"-parallel", "3"}, 0, "flag provided but not defined: -parallel"},
	}
	for _, tc := range cases {
		got, err := applyArgs(t, tc.args...)
		if (err != nil) != (tc.wantErr != "") || (err != nil && !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%v: applied %d, want %d", tc.args, got, tc.want)
		}
	}
}

func TestWorkersFlagWiresPool(t *testing.T) {
	defer SetWorkers(0)
	if _, err := applyArgs(t, "-workers", "2"); err != nil {
		t.Fatal(err)
	}
	if Workers() != 2 {
		t.Errorf("Workers() = %d after -workers 2", Workers())
	}
	// 0 leaves the current setting alone (all cores by default).
	if _, err := applyArgs(t); err != nil {
		t.Fatal(err)
	}
	if Workers() != 2 {
		t.Errorf("Workers() = %d, zero flag should not reset an explicit setting", Workers())
	}
}
