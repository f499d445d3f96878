package core

import (
	"errors"
	"testing"

	"mtprefetch/internal/config"
	"mtprefetch/internal/workload"
)

// TestOptionsRejection pins the field-level validation in New: every
// nonsensical Options combination must come back as an *OptionError
// naming the offending field, before any cycle executes.
func TestOptionsRejection(t *testing.T) {
	valid := workload.ByName("stream")
	if valid == nil {
		t.Fatal("workload suite missing stream")
	}
	badCfg := config.Baseline()
	badCfg.NumCores = 0
	badSpec := *valid
	badSpec.Blocks = -1

	cases := []struct {
		name  string
		o     Options
		field string
	}{
		{"nil workload", Options{}, "Workload"},
		{"invalid config", Options{Workload: valid, Config: badCfg}, "Config"},
		{"invalid spec", Options{Workload: &badSpec}, "Workload"},
		{"watchdog wider than run", Options{Workload: valid,
			MaxCycles: 1000, WatchdogWindow: 2000}, "WatchdogWindow"},
		{"check period without Checks", Options{Workload: valid,
			CheckEvery: 1024}, "CheckEvery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.o)
			if err == nil {
				t.Fatal("New accepted nonsense options")
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v (%T) is not an *OptionError", err, err)
			}
			if oe.Field != tc.field {
				t.Fatalf("rejected field %q, want %q (err: %v)", oe.Field, tc.field, err)
			}
		})
	}
}

// TestOptionsAccepted checks that the watchdog and checker defaults do
// not reject ordinary configurations.
func TestOptionsAccepted(t *testing.T) {
	for _, o := range []Options{
		{Workload: workload.ByName("stream")},
		{Workload: workload.ByName("stream"), Checks: true},
		{Workload: workload.ByName("stream"), MaxCycles: 100}, // window clamps to MaxCycles
	} {
		if _, err := New(o); err != nil {
			t.Fatalf("New(%+v): %v", o, err)
		}
	}
}
