package commprof

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// parseAnalyserFlags parses args on a flag set holding exactly BindFlags'
// table, the way a frontend does.
func parseAnalyserFlags(args ...string) (Options, *flag.FlagSet, error) {
	var o Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.BindFlags(fs)
	err := fs.Parse(args)
	if err == nil {
		err = o.CheckFlags()
	}
	return o, fs, err
}

// TestFlagsCoverOptions pins the one option surface. Every Options field is
// either moved by exactly one analyser flag or on the list of fields a
// frontend fills by itself, so a field added without that decision fails;
// whatever a frontend parsed crosses the environment unchanged; and what no
// run would honour is refused by the table, for flags and environment alike.
func TestFlagsCoverOptions(t *testing.T) {
	perFrontend := map[string]bool{
		"Workload": true, "Threads": true, "InputSize": true, "Seed": true,
		"DisableCoalesce": true, "MaxHotspots": true, "Telemetry": true,
	}
	// A non-default value per flag. -accuracy-bits also switches the monitor
	// on, which is AccuracyTargetFPR moving: an implication, not a second owner.
	nonDefault := map[string]string{
		"sig": "4096", "phases": "500", "sample": "4", "granularity": "6",
		"shards": "2", "redundancy-bits": "10",
		"accuracy-bits": "3", "accuracy-target": "0.2",
	}
	implied := map[string]string{"accuracy-bits": "AccuracyTargetFPR"}

	zero, fs, err := parseAnalyserFlags()
	if err != nil {
		t.Fatal(err)
	}
	movedBy := map[string][]string{} // field → flags
	fs.VisitAll(func(f *flag.Flag) {
		val, ok := nonDefault[f.Name]
		if !ok {
			t.Errorf("flag -%s has no non-default value in this test", f.Name)
			return
		}
		args := []string{"-" + f.Name + "=" + val}
		got, _, err := parseAnalyserFlags(args...)
		if err != nil {
			t.Errorf("%v: %v", args, err)
			return
		}
		base := zero
		moved := 0
		for i := 0; i < reflect.TypeOf(got).NumField(); i++ {
			field := reflect.TypeOf(got).Field(i).Name
			if reflect.DeepEqual(reflect.ValueOf(got).Field(i).Interface(), reflect.ValueOf(base).Field(i).Interface()) {
				continue
			}
			moved++
			if implied[f.Name] != field {
				movedBy[field] = append(movedBy[field], f.Name)
			}
		}
		if moved == 0 {
			t.Errorf("-%s=%s moves no Options field", f.Name, val)
		}
	})
	for i := 0; i < reflect.TypeOf(zero).NumField(); i++ {
		field := reflect.TypeOf(zero).Field(i).Name
		switch flags := movedBy[field]; {
		case perFrontend[field] && len(flags) > 0:
			t.Errorf("Options.%s is on the per-frontend list and moved by %v", field, flags)
		case !perFrontend[field] && len(flags) != 1:
			t.Errorf("Options.%s is moved by %d analyser flags %v, want exactly one (or name it on the per-frontend list)", field, len(flags), flags)
		}
	}

	// args → Environ → OptionsFromEnv is the identity on Options, for a flag
	// set that also declares flags of the frontend's own.
	for _, args := range [][]string{
		nil,
		{"-shards", "2", "-phases", "2000", "-threads", "4"},
		{"-accuracy-target=0", "-accuracy-bits=0", "-sample=2"},
		{"-sig=512", "-granularity=6", "-shards=3", "-redundancy-bits=12", "-accuracy-target=0.1"},
	} {
		var want Options
		fs := flag.NewFlagSet("frontend", flag.ContinueOnError)
		want.BindFlags(fs)
		fs.Int("threads", 0, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		name, value, _ := strings.Cut(Environ(fs), "=")
		if name != "COMMPROF_OPTS" || strings.Contains(value, "threads") {
			t.Errorf("Environ(%v) = %s=%s", args, name, value)
		}
		t.Setenv(name, value)
		got, err := OptionsFromEnv()
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%v → %q → %+v (err %v), want %+v", args, value, got, err, want)
		}
	}

	// The environment is parsed by the same table, so one rejection table
	// covers both (-fpr is no flag: the reader sets have no rate to set; nor
	// is -shard-queue: the queue bound is the engine's own).
	for _, bad := range []string{
		"-granularity=-1", "-phases=x", "-bogus=1", "-shards=2 stray", "-shard-queue=64",
		"-shards=-1", "-sample=-2", "-fpr=0.01", "-accuracy-bits=x", "-accuracy-target=-0.1",
	} {
		t.Setenv("COMMPROF_OPTS", bad)
		if o, err := OptionsFromEnv(); err == nil || !strings.Contains(err.Error(), "COMMPROF_OPTS") {
			t.Errorf("COMMPROF_OPTS=%q: got %+v, err %v; want an error naming the variable", bad, o, err)
		}
	}
}
