package splash

import (
	"testing"

	"commprof/internal/comm"
	"commprof/internal/detect"
	"commprof/internal/exec"
	"commprof/internal/sig"
)

// profileApp runs one benchmark under the detector and returns it.
func profileApp(t testing.TB, name string, threads int, size Size) (*detect.Detector, exec.Stats, Program) {
	t.Helper()
	prog, err := New(name, Config{Threads: threads, Size: size, Seed: 42})
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	s, err := sig.NewAsymmetric(sig.Options{Slots: 1 << 20, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	d, err := detect.New(detect.Options{Threads: threads, Backend: s, Table: prog.Table()})
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(exec.Options{Threads: threads, Probe: d.Probe()})
	stats, err := prog.Run(e)
	if err != nil {
		t.Fatalf("%s run: %v", name, err)
	}
	return d, stats, prog
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 14 {
		t.Fatalf("registry has %d benchmarks, want 14: %v", len(names), names)
	}
	for _, want := range []string{"barnes", "fmm", "ocean_cp", "ocean_ncp", "radiosity",
		"raytrace", "volrend", "water_nsq", "water_spat", "cholesky", "fft", "lu_cb", "lu_ncb", "radix"} {
		if _, err := New(want, Config{Threads: 4, Size: SimDev, Seed: 1}); err != nil {
			t.Errorf("New(%s): %v", want, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("nosuch", Config{Threads: 4, Size: SimDev}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := New("fft", Config{Threads: 0, Size: SimDev}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := New("fft", Config{Threads: 4, Size: Size(9)}); err == nil {
		t.Error("bad size accepted")
	}
}

func TestSizeParsing(t *testing.T) {
	for _, s := range []Size{SimDev, SimSmall, SimLarge} {
		got, err := ParseSize(s.String())
		if err != nil || got != s {
			t.Errorf("round-trip %v failed: %v %v", s, got, err)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("bad size name accepted")
	}
	if Size(9).String() == "" {
		t.Error("unknown size has empty String")
	}
}

// TestAllBenchmarksRunAndCommunicate is the broad integration gate: every
// benchmark at simdev with 8 threads must run to completion, produce
// deterministic stats, communicate across threads, and satisfy the nested
// summation law.
func TestAllBenchmarksRunAndCommunicate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d, stats, prog := profileApp(t, name, 8, SimDev)
			if stats.Accesses == 0 {
				t.Fatal("no accesses executed")
			}
			if prog.Footprint() == 0 {
				t.Fatal("zero footprint")
			}
			m := d.Global()
			if m.Total() == 0 {
				t.Fatal("no communication detected")
			}
			// Communication involves more than one producer pair.
			if m.NonZeroCells() < 2 {
				t.Fatalf("degenerate matrix: %d cells", m.NonZeroCells())
			}
			tree, err := d.Tree()
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckSummationLaw(); err != nil {
				t.Fatal(err)
			}
			if len(tree.Hotspots(3)) == 0 {
				t.Fatal("no hotspot loops found")
			}
		})
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	for _, name := range []string{"lu_ncb", "radix", "barnes"} {
		d1, s1, _ := profileApp(t, name, 4, SimDev)
		d2, s2, _ := profileApp(t, name, 4, SimDev)
		if s1 != s2 {
			t.Errorf("%s: stats differ across runs: %+v vs %+v", name, s1, s2)
		}
		if !d1.Global().Equal(d2.Global()) {
			t.Errorf("%s: matrices differ across identical runs", name)
		}
	}
}

func TestEngineThreadMismatchRejected(t *testing.T) {
	prog, err := New("fft", Config{Threads: 4, Size: SimDev, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(exec.Options{Threads: 8})
	if _, err := prog.Run(e); err == nil {
		t.Fatal("thread-count mismatch accepted")
	}
}

// offDiagonalBandShare returns the fraction of communicated bytes in cells
// within the given band of the diagonal (excluding the diagonal itself).
func offDiagonalBandShare(m *comm.Matrix, band int) float64 {
	var in, total uint64
	for s := 0; s < m.N(); s++ {
		for d := 0; d < m.N(); d++ {
			v := m.At(s, d)
			if s == d {
				continue
			}
			total += v
			diff := s - d
			if diff < 0 {
				diff = -diff
			}
			if diff <= band {
				in += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

func TestOceanIsNearestNeighbour(t *testing.T) {
	// Structured grid: with an 8-thread 2x4 grid, halo partners are tid±1
	// and tid±4; most volume must sit within band 4.
	d, _, _ := profileApp(t, "ocean_cp", 8, SimDev)
	if share := offDiagonalBandShare(d.Global(), 4); share < 0.95 {
		t.Fatalf("ocean band-4 share = %v, want >= 0.95\n%s", share, d.Global().Heatmap())
	}
}

func TestWaterSpatTighterThanWaterNsq(t *testing.T) {
	dn, _, _ := profileApp(t, "water_nsq", 8, SimDev)
	ds, _, _ := profileApp(t, "water_spat", 8, SimDev)
	nsqBand := offDiagonalBandShare(dn.Global(), 1)
	spatBand := offDiagonalBandShare(ds.Global(), 1)
	if spatBand <= nsqBand {
		t.Fatalf("water_spat band-1 share (%v) should exceed water_nsq's (%v): spatial decomposition localizes communication", spatBand, nsqBand)
	}
}

func TestFFTIsAllToAll(t *testing.T) {
	// Transpose communication: every ordered pair of distinct threads
	// exchanges data.
	d, _, _ := profileApp(t, "fft", 8, SimDev)
	m := d.Global()
	missing := 0
	for s := 0; s < 8; s++ {
		for dd := 0; dd < 8; dd++ {
			if s != dd && m.At(s, dd) == 0 {
				missing++
			}
		}
	}
	if missing > 4 {
		t.Fatalf("fft all-to-all has %d empty off-diagonal cells\n%s", missing, m.Heatmap())
	}
}

func TestRadixPairwiseHotspotHalfThreads(t *testing.T) {
	// Fig. 8a: in the pairwise-reduction hotspot loop, exactly half the
	// threads supply data.
	d, _, prog := profileApp(t, "radix", 8, SimDev)
	var loopID int32 = -1
	for _, r := range prog.Table().Regions {
		if r.Name == "rank_prefix#pairwise" {
			loopID = r.ID
		}
	}
	if loopID < 0 {
		t.Fatal("pairwise loop not found in table")
	}
	lm, err := d.RegionMatrix(loopID)
	if err != nil {
		t.Fatal(err)
	}
	suppliers := 0
	for s, row := range lm.RowSums() {
		if row > 0 {
			if s%2 == 0 {
				t.Fatalf("even thread %d supplied data in pairwise loop", s)
			}
			suppliers++
		}
	}
	if suppliers != 4 {
		t.Fatalf("suppliers = %d, want 4 (half of 8)\n%s", suppliers, lm.Heatmap())
	}
}

func TestLUPerimeterReadsDiagonalOwner(t *testing.T) {
	d, _, prog := profileApp(t, "lu_ncb", 8, SimDev)
	// The bdiv loop's matrix must have at least one dominant producer per
	// step (the diagonal-block owner); aggregate: few producers dominate.
	var bdivID int32 = -1
	for _, r := range prog.Table().Regions {
		if r.Name == "bdiv#perimeter" {
			bdivID = r.ID
		}
	}
	lm, err := d.RegionMatrix(bdivID)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Total() == 0 {
		t.Fatal("no communication in bdiv")
	}
}

func TestRaytraceSkewedSuppliers(t *testing.T) {
	// Fig. 8b: uneven supplier load — the hot scene quarter's owners supply
	// far more than the rest.
	d, _, _ := profileApp(t, "raytrace", 8, SimDev)
	rows := d.Global().RowSums()
	var first2, rest uint64
	for i, v := range rows {
		if i < 2 {
			first2 += v
		} else {
			rest += v
		}
	}
	if first2 <= rest {
		t.Fatalf("expected hot-region owners (threads 0-1) to dominate: first2=%d rest=%d", first2, rest)
	}
}

func TestRadiosityEvenLoad(t *testing.T) {
	// Fig. 8c: all threads participate with comparable supplier volume.
	d, _, _ := profileApp(t, "radiosity", 8, SimDev)
	rows := d.Global().RowSums()
	var min, max uint64 = ^uint64(0), 0
	for _, v := range rows {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 {
		t.Fatalf("some thread supplied nothing: %v", rows)
	}
	if float64(max) > 3*float64(min) {
		t.Fatalf("radiosity load too skewed: min=%d max=%d", min, max)
	}
}

func TestLULayoutsDifferButCommunicationSimilar(t *testing.T) {
	// lu_cb and lu_ncb share the algorithm; their total communicated volume
	// must be close even though address layouts differ.
	dc, _, _ := profileApp(t, "lu_cb", 8, SimDev)
	dn, _, _ := profileApp(t, "lu_ncb", 8, SimDev)
	c, n := float64(dc.Global().Total()), float64(dn.Global().Total())
	if c == 0 || n == 0 {
		t.Fatal("no communication")
	}
	if ratio := c / n; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("cb/ncb volume ratio = %v, expected near 1", ratio)
	}
}

func TestThirtyTwoThreadRun(t *testing.T) {
	// The paper's headline configuration.
	if testing.Short() {
		t.Skip("short mode")
	}
	d, stats, _ := profileApp(t, "lu_ncb", 32, SimDev)
	if stats.Accesses == 0 || d.Global().Total() == 0 {
		t.Fatal("32-thread run degenerate")
	}
}

func TestFootprintGrowsWithSize(t *testing.T) {
	for _, name := range []string{"fft", "radix", "ocean_cp", "water_nsq"} {
		dev, err := New(name, Config{Threads: 4, Size: SimDev, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		large, err := New(name, Config{Threads: 4, Size: SimLarge, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if large.Footprint() <= dev.Footprint() {
			t.Errorf("%s: simlarge footprint (%d) not larger than simdev (%d)", name, large.Footprint(), dev.Footprint())
		}
	}
}

func BenchmarkLUNcbSimdevInstrumented(b *testing.B) {
	for i := 0; i < b.N; i++ {
		profileApp(b, "lu_ncb", 8, SimDev)
	}
}
