package commprof

import "testing"

// TestSetDefaultsSentinels pins the documented zero-value sentinel behaviour:
// Seed 0 means "unset" and is rewritten to the default, so it cannot be
// selected explicitly (seed 0 silently becomes 42).
func TestSetDefaultsSentinels(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Seed != 42 {
		t.Errorf("Seed sentinel: got %d, want 42", o.Seed)
	}
	if o.Threads != 32 || o.InputSize != "simdev" || o.SignatureSlots != 1<<20 {
		t.Errorf("other defaults wrong: %+v", o)
	}
	if o.MaxHotspots != 10 {
		t.Errorf("MaxHotspots default: got %d, want 10", o.MaxHotspots)
	}

	// Explicit non-zero values survive untouched.
	set := Options{Seed: 7, MaxHotspots: 3}
	set.setDefaults()
	if set.Seed != 7 || set.MaxHotspots != 3 {
		t.Errorf("explicit values rewritten: %+v", set)
	}

	// Negative MaxHotspots (lift the cap) must not be clobbered either.
	neg := Options{MaxHotspots: -1}
	neg.setDefaults()
	if neg.MaxHotspots != -1 {
		t.Errorf("negative MaxHotspots rewritten to %d", neg.MaxHotspots)
	}
}

func TestMaxHotspotsCap(t *testing.T) {
	base := Options{Workload: "lu_ncb", Threads: 8}
	full, err := Profile(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Hotspots) == 0 {
		t.Fatal("lu_ncb produced no hotspots; test workload unsuitable")
	}

	capped := base
	capped.MaxHotspots = 2
	rep, err := Profile(capped)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hotspots) > 2 {
		t.Errorf("MaxHotspots=2 but report has %d hotspots", len(rep.Hotspots))
	}
	// The cap keeps the ranking prefix: same top entries as the full list.
	for i, h := range rep.Hotspots {
		if h.Region != full.Hotspots[i].Region {
			t.Errorf("hotspot %d: %s, uncapped run has %s", i, h.Region, full.Hotspots[i].Region)
		}
	}

	uncapped := base
	uncapped.MaxHotspots = -1
	all, err := Profile(uncapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Hotspots) < len(full.Hotspots) {
		t.Errorf("MaxHotspots=-1 returned %d hotspots, capped default returned %d",
			len(all.Hotspots), len(full.Hotspots))
	}
}
