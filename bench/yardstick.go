package main

import "time"

// The yardstick is a fixed piece of work the benchmark owns and no change to
// commprof can alter. It runs between ops, for a tenth of the time the ops
// take, and a run's times are divided by how much slower than nominal the
// yardstick ran during that run.
//
// Why: the host this benchmark was sized on has episodes, minutes long, in
// which every workload runs 15-35 % slower at once (process CPU time rises
// with wall time: contention for the core and its caches, not descheduling).
// A run lasts seconds, so it sits wholly inside or outside an episode and no
// number of passes averages one out; two sets of runs of one commit taken ten
// minutes apart differed by 33 % on live. The yardstick sees the episode the
// passes see.
//
// It has two halves, because the access path is a mix of the two and an
// episode slows them differently: hashed read-modify-writes scattered over
// tables the size of the default signature, which is what detect+sig do per
// access, and a dependent arithmetic chain that never leaves the registers.
// In an episode logged with both timed beside the passes, live, record, replay
// and synth-local slowed by 1.25, 1.27, 1.20 and 1.18 and the scatter half by
// 1.31; the chain half is about a third as sensitive, so two parts scatter to
// one part chain lands in the middle of the workloads. (Seen since: a short
// episode raised the yardstick to 1.24x and synth-local's unnormalised median
// by 18 %; the normalised one moved by -4 %.) What the yardstick does
// not see is the cost of fresh memory and of waking a thread, which on this
// host has regimes of its own: go-probe (a child process that buffers a whole
// run) and synth-spread (34 MB of lazily allocated filters per op) move with
// those as well, and stay the noisiest rows.

const (
	yardstickSlots   = 1 << 20 // the default signature's slot count
	yardstickScatter = 1 << 18 // scattered operations per execution
	yardstickChain   = 3 << 19 // chained operations per execution
	yardstickShare   = 10      // the yardstick gets 1/yardstickShare of the ops' time

	// yardstickNominalNs is one execution on the reference host (2 shared
	// KVM cores, go1.24) while it is quiet. It only fixes the scale, so that
	// normalised times read as that host's nanoseconds.
	yardstickNominalNs = 6.7e6
)

type yardstick struct {
	writers []int32
	readers []uint64
	state   uint64
	samples []float64     // ns per execution
	spent   time.Duration // inside executions
	covered time.Duration // op and set-up time the executions stand for
}

func newYardstick() *yardstick {
	return &yardstick{writers: make([]int32, yardstickSlots), readers: make([]uint64, yardstickSlots), state: 0x9E3779B97F4A7C15}
}

// run times one execution, after an untimed one. Without the first, an
// execution that follows another (beside ops long enough to earn several) ran
// a quarter faster than one that follows an op, its tables still being warm;
// with it every timed execution starts from the same state, and a change to an
// op's footprint cannot move its own yardstick.
func (y *yardstick) run() {
	t0 := time.Now()
	y.execute()
	t1 := time.Now()
	y.execute()
	y.spent += time.Since(t0)
	y.samples = append(y.samples, float64(time.Since(t1)))
}

func (y *yardstick) execute() {
	x := y.state
	for i := 0; i < yardstickScatter; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		h := x * 0x2545F4914F6CDD1D
		slot, tid := h>>44&(yardstickSlots-1), int32(h&31)
		if h>>40&3 == 0 {
			y.writers[slot] = tid + 1
			y.readers[slot] = 0
		} else if w := y.writers[slot]; w != 0 && w-1 != tid {
			y.readers[slot] |= 1 << uint(tid)
		}
	}
	for i := 0; i < yardstickChain; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
	}
	y.state = x // the chain's result feeds the next execution, so neither loop is dead code
}

// pace runs executions until the yardstick has had its share of the time
// covered so far; it is called before every op and set-up, cover after.
func (y *yardstick) pace() {
	for y.spent*yardstickShare <= y.covered {
		y.run()
	}
}

func (y *yardstick) cover(d time.Duration) { y.covered += d }

// factor is how much slower than nominal the host ran the yardstick over the
// run: its median execution over the nominal one.
func (y *yardstick) factor() float64 { return median(y.samples) / yardstickNominalNs }
