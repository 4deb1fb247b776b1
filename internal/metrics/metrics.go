// Package metrics derives quantitative indicators from communication
// matrices: the paper's Eq. 1 thread-load vector (§IV-E, Fig. 8), aggregate
// load-balance measures for auto-tuners, and phase segmentation of the
// communication-event stream (dynamic behaviour, §V-A4).
package metrics

import (
	"fmt"
	"math"

	"commprof/internal/comm"
)

// ThreadLoad computes Eq. 1 for every thread:
//
//	threadLoad_i = sum(dataCommunicationInBytes_i) / threads_count
//
// where the numerator is the sum of thread i's row of the communication
// matrix (total bytes thread i supplied to other threads).
func ThreadLoad(m *comm.Matrix) []float64 {
	n := m.N()
	rows := m.RowSums()
	out := make([]float64, n)
	for i, r := range rows {
		out[i] = float64(r) / float64(n)
	}
	return out
}

// ActiveThreads counts threads with non-zero load. Fig. 8a's radix hotspot
// shows "half of threads are accessing the memory"; this is that number.
func ActiveThreads(load []float64) int {
	c := 0
	for _, v := range load {
		if v > 0 {
			c++
		}
	}
	return c
}

// BalanceIndex returns max(load)/mean(load>0 threads included); 1.0 is a
// perfectly even distribution, larger is worse. Returns 0 for all-zero load.
func BalanceIndex(load []float64) float64 {
	var sum, max float64
	for _, v := range load {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(load))
	return max / mean
}

// CV returns the coefficient of variation (stddev/mean) of the load vector;
// 0 means perfectly even. Returns 0 for an all-zero vector.
func CV(load []float64) float64 {
	n := float64(len(load))
	if n == 0 {
		return 0
	}
	var sum float64
	for _, v := range load {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	mean := sum / n
	var ss float64
	for _, v := range load {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss/n) / mean
}

// Gini returns the Gini coefficient of the load distribution in [0,1):
// 0 = perfectly even, →1 = one thread does everything.
func Gini(load []float64) float64 {
	n := len(load)
	if n == 0 {
		return 0
	}
	var sum, diff float64
	for _, v := range load {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	for _, a := range load {
		for _, b := range load {
			diff += math.Abs(a - b)
		}
	}
	return diff / (2 * float64(n) * sum)
}

// Summary aggregates the load metrics of one region for reports.
type Summary struct {
	Load    []float64
	Active  int
	Balance float64
	CV      float64
	Gini    float64
}

// Summarize computes all load metrics for a matrix.
func Summarize(m *comm.Matrix) Summary {
	load := ThreadLoad(m)
	return Summary{
		Load:    load,
		Active:  ActiveThreads(load),
		Balance: BalanceIndex(load),
		CV:      CV(load),
		Gini:    Gini(load),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("active=%d/%d balance=%.2f cv=%.2f gini=%.2f",
		s.Active, len(s.Load), s.Balance, s.CV, s.Gini)
}
