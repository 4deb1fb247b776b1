package patterns

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite default_knn.bin from TrainKNN(DefaultSeed) (amd64 only)")

// encodeKNN is decodeKNN's inverse: the encoder of default_knn.bin.
func encodeKNN(m *KNN) []byte {
	h := knnHeader{Dim: FeatureDim, Count: uint32(len(m.points)), K: uint32(m.k)}
	copy(h.Magic[:], knnMagic)
	labels := make([]uint8, len(m.labels))
	for i, l := range m.labels {
		labels[i] = uint8(l)
	}
	var b bytes.Buffer
	for _, v := range []any{h, m.mean, m.std, m.points, labels} {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// modelDiff names the first difference between two models, bit for bit on
// every float; "" when they are the same model.
func modelDiff(a, b *KNN) string {
	sameBits := func(x, y [FeatureDim]float64) bool {
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(y[j]) {
				return false
			}
		}
		return true
	}
	switch {
	case a.k != b.k:
		return "k"
	case !sameBits(a.mean, b.mean):
		return "mean"
	case !sameBits(a.std, b.std):
		return "std"
	case len(a.points) != len(b.points) || len(a.labels) != len(b.labels):
		return "point count"
	}
	for i := range a.points {
		if !sameBits(a.points[i], b.points[i]) || a.labels[i] != b.labels[i] {
			return fmt.Sprintf("point %d", i)
		}
	}
	return ""
}

// TestDefaultModelMatchesTraining pins the shipped model to retraining at
// DefaultSeed: bit for bit where the file is generated (amd64), and by equal
// predictions on an evaluation corpus elsewhere, where math.Exp and fused
// multiply-adds may round the retrained model differently.
func TestDefaultModelMatchesTraining(t *testing.T) {
	trained, err := TrainKNN(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if runtime.GOARCH != "amd64" {
			t.Fatalf("default_knn.bin is generated on amd64, not %s", runtime.GOARCH)
		}
		if err := os.WriteFile(defaultKNNFile, encodeKNN(trained), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s; rerun without -update to check the embedded copy", defaultKNNFile)
		return
	}
	shipped, err := DefaultKNN()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := DefaultKNN(); again != shipped {
		t.Fatal("DefaultKNN decoded a second model")
	}
	if runtime.GOARCH == "amd64" {
		if d := modelDiff(shipped, trained); d != "" {
			t.Fatalf("shipped model differs from TrainKNN(%d) at %s; rerun with -update", DefaultSeed, d)
		}
		if !bytes.Equal(encodeKNN(trained), defaultKNNBlob) {
			t.Fatal("-update would not rewrite default_knn.bin byte for byte")
		}
		return
	}
	for i, s := range Corpus(40, []int{8, 16, 32}, 0, rand.New(rand.NewSource(7))) {
		if got, want := shipped.Predict(s.Features), trained.Predict(s.Features); got != want {
			t.Fatalf("sample %d: shipped model predicts %v, retrained %v", i, got, want)
		}
	}
}

// TestDecodeKNNRejects feeds the decoder damaged copies of the shipped file:
// each is refused with an error naming the file and the damage.
func TestDecodeKNNRejects(t *testing.T) {
	good := defaultKNNBlob
	if _, err := decodeKNN(good); err != nil {
		t.Fatal(err)
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	setU32 := func(at int, v uint32) []byte {
		return edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[at:], v); return b })
	}
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"empty", nil, "truncated header"},
		{"truncated header", good[:15], "truncated header"},
		{"truncated points", good[:len(good)/2], "truncated or mismatched"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "truncated or mismatched"},
		{"bad magic", edit(func(b []byte) []byte { b[0] ^= 0xff; return b }), "bad magic"},
		{"wrong dim", setU32(4, FeatureDim+1), "feature dimension"},
		{"more points than bytes", setU32(8, 421), "truncated or mismatched"},
		{"fewer points than k", setU32(8, 4), "4 points for k=5"},
		{"zero k", setU32(12, 0), "for k=0"},
		{"bad label", edit(func(b []byte) []byte { b[len(b)-1] = byte(NumClasses); return b }), "label 7"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := decodeKNN(c.blob)
			if err == nil || m != nil {
				t.Fatalf("decoded %v, want an error", m)
			}
			if !strings.Contains(err.Error(), defaultKNNFile) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %s and %q", err, defaultKNNFile, c.want)
			}
		})
	}
}

// BenchmarkDefaultKNN meters what the first DefaultKNN call in a process
// costs: one decode of the shipped file.
func BenchmarkDefaultKNN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeKNN(defaultKNNBlob); err != nil {
			b.Fatal(err)
		}
	}
}
