package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"sort"
	"syscall"

	"lightwsp/internal/machine"
)

// minBeyond is how many samples must lie above a reported percentile, so
// that one or two stray samples cannot move it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs. It
// refuses a percentile with fewer than minBeyond samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	k := int(math.Ceil(p * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n == 0 || n-k < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, want at least %d",
			p*100, n, n-k, minBeyond)
	}
	s := sorted(xs)
	return s[k-1], nil
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); zero for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so the steadiness report reads like the checks made
// on its output. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// statsDigest fingerprints every field of a run's statistics: the SHA-256
// of their JSON encoding, which covers each exported field by name.
func statsDigest(st *machine.Stats) string {
	raw, err := json.Marshal(st)
	if err != nil {
		panic(err) // machine.Stats is plain integers
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// zipfSequence draws n indices in [0, keys) from a Zipf law (exponent 1.1),
// with the rank-to-index mapping shuffled by the same seed so different
// seeds favour different keys. Equal seeds give equal sequences.
func zipfSequence(seed int64, n, keys int) []int {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(keys)
	z := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	out := make([]int, n)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// cutSample draws n power-cut cycles for an oracle of total cycles, in a
// sampled campaign's proportions: randomShare of them uniform over the
// whole run, the rest within the first earlyFrac of it, where the
// probe-guided cycles fall. Equal seeds give equal samples.
func cutSample(seed int64, n int, total uint64, randomShare, earlyFrac float64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	random := int(math.Round(randomShare * float64(n)))
	early := uint64(earlyFrac * float64(total))
	if early < 1 {
		early = 1
	}
	out := make([]uint64, n)
	for i := range out {
		if i < random {
			out[i] = rng.Uint64() % total
		} else {
			out[i] = rng.Uint64() % early
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goCounters reads the Go runtime's cumulative GC CPU time (seconds) and
// heap allocation (bytes).
func goCounters() (gcCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[1].Value.Uint64())
	}
	return gcCPU, allocBytes
}
