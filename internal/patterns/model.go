package patterns

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// DefaultSeed is the corpus seed of the shipped model, DefaultKNN.
const DefaultSeed = 42

// TrainKNN trains the §VI classifier the profiler uses: k = 5 over 60
// canonical matrices per class at 8, 16 and 32 threads, drawn from seed.
func TrainKNN(seed int64) (*KNN, error) {
	return NewKNN(5, Corpus(60, []int{8, 16, 32}, 0, rand.New(rand.NewSource(seed))))
}

// defaultKNNFile is TrainKNN(DefaultSeed) as data, written on amd64 by this
// package's tests under -update. The shipped bits are the model on every
// architecture, where retraining could differ in the last bit.
const defaultKNNFile = "default_knn.bin"

//go:embed default_knn.bin
var defaultKNNBlob []byte

// knnHeader opens an encoded model: knnMagic, feature dimension, point count
// and k. Then come mean, std and the standardised points as float64s, and one
// byte per label, all little-endian.
type knnHeader struct {
	Magic         [4]byte
	Dim, Count, K uint32
}

const knnMagic = "kNN\x01"

// DefaultKNN returns the shipped model, decoded once per process. It is
// shared and never written, so any number of goroutines may classify with it.
var DefaultKNN = sync.OnceValues(func() (*KNN, error) { return decodeKNN(defaultKNNBlob) })

// decodeKNN reads a model laid out as knnHeader describes.
func decodeKNN(b []byte) (*KNN, error) {
	bad := func(format string, a ...any) (*KNN, error) {
		return nil, fmt.Errorf("patterns: %s: "+format, append([]any{defaultKNNFile}, a...)...)
	}
	var h knnHeader
	if binary.Read(bytes.NewReader(b), binary.LittleEndian, &h) != nil {
		return bad("truncated header (%d bytes)", len(b))
	}
	want := binary.Size(h) + (2+int(h.Count))*FeatureDim*8 + int(h.Count)
	switch {
	case string(h.Magic[:]) != knnMagic:
		return bad("bad magic %q", h.Magic)
	case h.Dim != FeatureDim:
		return bad("feature dimension %d, want %d", h.Dim, FeatureDim)
	case h.K == 0 || h.Count < h.K:
		return bad("%d points for k=%d", h.Count, h.K)
	case len(b) != want:
		return bad("%d bytes, want %d for %d points (truncated or mismatched)", len(b), want, h.Count)
	}
	rest := b[binary.Size(h):]
	read := func(v *[FeatureDim]float64) {
		for j := range v {
			v[j], rest = math.Float64frombits(binary.LittleEndian.Uint64(rest)), rest[8:]
		}
	}
	m := &KNN{k: int(h.K), points: make([][FeatureDim]float64, h.Count), labels: make([]Class, 0, h.Count)}
	read(&m.mean)
	read(&m.std)
	for i := range m.points {
		read(&m.points[i])
	}
	for i, l := range rest {
		if Class(l) >= NumClasses {
			return bad("label %d of point %d", l, i)
		}
		m.labels = append(m.labels, Class(l))
	}
	return m, nil
}
