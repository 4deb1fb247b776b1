package passes

// CoalesceKernels returns the structured MiniPar kernel corpus that carries
// the loop-level probe redundancy the coalescing pass targets: repeated
// same-element reads inside a statement (fft's butterfly), re-reads of the
// written element (stencil), and loop-invariant coefficient reads
// (reduction). The corpus is shared by the differential tests in this
// package, BenchmarkCoalesce and the commbench coalescing ablation
// (internal/experiments), so the acceptance numbers commbench -exp coalesce
// prints are measured on exactly the programs the soundness wall pins.
func CoalesceKernels() map[string]string {
	out := make(map[string]string, len(coalesceKernels))
	for k, v := range coalesceKernels {
		out[k] = v
	}
	return out
}

var coalesceKernels = map[string]string{
	"fft": `// Radix-2-style butterfly: each element pair is loaded repeatedly.
array Re[256];
array Im[256];

func main() {
  parfor i = 0..256 {
    Re[i] = i % 13;
    Im[i] = i % 7;
  }
  barrier;
  parfor i = 0..256 {
    tr = Re[i] * 3 - Im[i];
    ti = Re[i] + Im[i] * 3;
    Re[i] = Re[i] + tr;
    Im[i] = Im[i] + ti;
  }
  barrier;
  if tid == 0 {
    out Re[17] + Im[42];
  }
}
`,
	"stencil": `// Weighted 1-D stencil: the centre element and the per-thread
// weight are each read twice per iteration.
array G[300];
array Wt[64];

func main() {
  parfor i = 0..300 {
    G[i] = i % 17;
  }
  Wt[tid] = tid + 1;
  barrier;
  parfor i = 1..299 {
    s = (G[i-1] + G[i] + G[i+1]) * Wt[tid];
    G[i] = (s + G[i] * Wt[tid]) / 4;
  }
  barrier;
  if tid == 0 {
    out G[150];
  }
}
`,
	"reduction": `// Coefficient-weighted sum: the store-free inner loop re-reads
// the loop-invariant coefficient every iteration (once-per-entry elision).
array Val[512];
array Coef[64];
array Acc[64];

func main() {
  parfor i = 0..512 {
    Val[i] = i % 9;
  }
  Coef[tid] = tid + 2;
  barrier;
  blk = 512 / nthreads;
  lo = blk * tid;
  s = 0;
  for i = 0..blk {
    s = s + Val[lo + i] * Coef[tid];
  }
  Acc[tid] = s;
  barrier;
  if tid == 0 {
    t = 0;
    for k = 0..nthreads {
      t = t + Acc[k] * Coef[0];
    }
    out t;
  }
}
`,
}
