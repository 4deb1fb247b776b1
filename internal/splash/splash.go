// Package splash provides synthetic re-implementations of the fourteen
// SPLASH-2 kernels and applications the paper evaluates (§V, Woo et al.
// 1995). Each workload is an honest miniature parallel algorithm: threads own
// partitions of a simulated shared address space and read/write each other's
// data exactly where the original algorithm communicates (block LU panels,
// FFT transposes, stencil halos, n-body tree reads, radix permutation, ...).
// The communication matrices therefore *emerge* from the algorithms rather
// than being painted in, which is what makes the nested-pattern figures and
// hotspot metrics meaningful.
//
// This substitutes for running the original C benchmarks under LLVM-
// instrumented native execution; the profiler only consumes the instrumented
// access stream, whose sharing structure these implementations preserve.
package splash

import (
	"fmt"
	"sort"

	"commprof/internal/exec"
	"commprof/internal/trace"
	"commprof/internal/vmem"
)

// Size selects the input scale, mirroring the SPLASH/PARSEC "sim" inputs the
// paper uses (Figs. 4 and 5 use simdev and simlarge).
type Size int

const (
	// SimDev is the smallest development input (Fig. 4 operating point).
	SimDev Size = iota
	// SimSmall is an intermediate input.
	SimSmall
	// SimLarge is the large input (Fig. 5b operating point).
	SimLarge
)

// String returns the conventional input-set name.
func (s Size) String() string {
	switch s {
	case SimDev:
		return "simdev"
	case SimSmall:
		return "simsmall"
	case SimLarge:
		return "simlarge"
	default:
		return fmt.Sprintf("Size(%d)", int(s))
	}
}

// ParseSize converts an input-set name to a Size.
func ParseSize(s string) (Size, error) {
	switch s {
	case "simdev":
		return SimDev, nil
	case "simsmall":
		return SimSmall, nil
	case "simlarge":
		return SimLarge, nil
	default:
		return 0, fmt.Errorf("splash: unknown input size %q (want simdev, simsmall or simlarge)", s)
	}
}

// Program is one runnable benchmark instance, configured for a specific
// thread count and input size.
type Program interface {
	// Table returns the static region table produced by "compile-time"
	// analysis of the program: every function and annotated loop.
	Table() *trace.Table
	// Footprint returns the program's shared-data size in bytes; the
	// shadow-memory baselines grow with this (Fig. 5).
	Footprint() uint64
	// Run executes the program on the engine, which must be configured with
	// the same thread count.
	Run(e *exec.Engine) (exec.Stats, error)
}

// Config carries the common constructor parameters.
type Config struct {
	Threads int
	Size    Size
	Seed    int64
}

func (c Config) validate() error {
	if c.Threads <= 0 {
		return fmt.Errorf("splash: thread count must be positive, got %d", c.Threads)
	}
	if c.Size < SimDev || c.Size > SimLarge {
		return fmt.Errorf("splash: invalid size %d", c.Size)
	}
	return nil
}

type factory func(Config) (Program, error)

var registry = map[string]factory{
	"barnes":     newBarnes,
	"fmm":        newFMM,
	"ocean_cp":   func(c Config) (Program, error) { return newOcean(c, true) },
	"ocean_ncp":  func(c Config) (Program, error) { return newOcean(c, false) },
	"radiosity":  newRadiosity,
	"raytrace":   newRaytrace,
	"volrend":    newVolrend,
	"water_nsq":  newWaterNsq,
	"water_spat": newWaterSpat,
	"cholesky":   newCholesky,
	"fft":        newFFT,
	"lu_cb":      func(c Config) (Program, error) { return newLU(c, true) },
	"lu_ncb":     func(c Config) (Program, error) { return newLU(c, false) },
	"radix":      newRadix,
}

// Names returns all benchmark names in the order the paper's figures list
// them.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New constructs the named benchmark.
func New(name string, cfg Config) (Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("splash: unknown benchmark %q (known: %v)", name, Names())
	}
	return f(cfg)
}

// base carries the state shared by all benchmark implementations.
type base struct {
	name   string
	cfg    Config
	table  *trace.Table
	space  *vmem.Space
	thread func(t *exec.Thread) // every thread's body; each constructor sets it
}

func newBase(name string, cfg Config) *base {
	return &base{name: name, cfg: cfg, table: trace.NewTable(), space: vmem.NewSpace()}
}

func (b *base) Threads() int        { return b.cfg.Threads }
func (b *base) Table() *trace.Table { return b.table }
func (b *base) Footprint() uint64   { return b.space.FootprintBytes() }

// Run executes the benchmark's thread body on e, after a thread-count
// consistency check.
func (b *base) Run(e *exec.Engine) (exec.Stats, error) {
	if e.Threads() != b.cfg.Threads {
		return exec.Stats{}, fmt.Errorf("splash: %s built for %d threads, engine has %d", b.name, b.cfg.Threads, e.Threads())
	}
	return e.Run(b.thread)
}

// scale3 picks one of three values by input size.
func scale3[T any](s Size, dev, small, large T) T {
	switch s {
	case SimSmall:
		return small
	case SimLarge:
		return large
	default:
		return dev
	}
}

// blockRange returns the [lo,hi) slice of n items assigned to thread id out
// of p in a contiguous block partition.
func blockRange(n uint64, id, p int) (lo, hi uint64) {
	per := n / uint64(p)
	rem := n % uint64(p)
	u := uint64(id)
	lo = per*u + min64(u, rem)
	sz := per
	if u < rem {
		sz++
	}
	return lo, lo + sz
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// readRange issues size-byte reads of count consecutive elements.
func readRange(t *exec.Thread, r vmem.Region, start, count uint64) {
	for i := uint64(0); i < count; i++ {
		t.Read(r.Addr(start+i), r.ElemSize)
	}
}

// writeRange issues size-byte writes of count consecutive elements.
func writeRange(t *exec.Thread, r vmem.Region, start, count uint64) {
	for i := uint64(0); i < count; i++ {
		t.Write(r.Addr(start+i), r.ElemSize)
	}
}

// xorshift is the deterministic per-thread PRNG the irregular workloads use
// (radiosity task selection, raytrace scene sampling, cholesky sparsity).
type xorshift uint64

func newXorshift(seed int64, tid int32) xorshift {
	s := uint64(seed)*0x9E3779B97F4A7C15 + uint64(tid)*0xBF58476D1CE4E5B9 + 1
	return xorshift(s)
}

func (x *xorshift) next() uint64 {
	s := uint64(*x)
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	*x = xorshift(s)
	return s
}

// intn returns a value in [0,n).
func (x *xorshift) intn(n uint64) uint64 {
	if n == 0 {
		panic("splash: intn(0)")
	}
	return x.next() % n
}

// commBarrier performs an instrumented centralized barrier: every thread
// publishes its arrival flag in its own slot of flags and reads all peers'
// flags — the tiny all-to-all matrix the paper shows for barrier() nodes in
// Fig. 6 — then synchronises for real. flags must have one slot per thread.
func commBarrier(t *exec.Thread, region int32, flags vmem.Region) {
	t.InRegion(region, func() {
		t.Write(flags.Addr(uint64(t.ID())), 8)
		for i := uint64(0); i < flags.Count; i++ {
			t.Read(flags.Addr(i), 8)
		}
	})
	t.Barrier()
}
