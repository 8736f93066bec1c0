// Package workload synthesizes the evaluation programs. The paper runs 38
// applications from SPEC CPU2006/2017, SPLASH3, NPB-CPP, STAMP and WHISPER
// under gem5 full-system simulation; neither the binaries nor gem5 are
// reproducible here, so each application is replaced by a calibrated
// synthetic program (DESIGN.md §2): a deterministic kernel whose store
// density, working-set size, locality, branchiness, call frequency, thread
// count and synchronization rate match the qualitative class the paper's
// evaluation depends on (e.g. lbm/libquantum/milc and the WHISPER workloads
// are memory-intensive; STAMP is critical-section-heavy; NPB and SPLASH3
// are parallel scientific kernels).
//
// Programs are generated from a per-application seeded PRNG, so every run
// of the harness builds bit-identical workloads.
package workload

import (
	"strings"
	"sync"
)

// Suite names a benchmark suite from the paper's evaluation.
type Suite string

// The evaluated suites (§V-A).
const (
	CPU2006 Suite = "CPU2006"
	CPU2017 Suite = "CPU2017"
	STAMP   Suite = "STAMP"
	NPB     Suite = "NPB"
	SPLASH3 Suite = "SPLASH3"
	WHISPER Suite = "WHISPER"
)

// Suites lists all suites in the paper's presentation order.
func Suites() []Suite { return []Suite{CPU2006, CPU2017, STAMP, NPB, SPLASH3, WHISPER} }

// Profile characterizes one application's synthetic stand-in.
type Profile struct {
	// Name is the application name as it appears in Figure 7.
	Name  string
	Suite Suite

	// StoreWeight, LoadWeight and ALUWeight set the instruction mix
	// (relative weights of generated segment types).
	StoreWeight, LoadWeight, ALUWeight int

	// StoreFrac is the target dynamic store fraction (stores per
	// instruction). The builder pads the loop body with ALU work until
	// the static ratio matches, which pins the persist-path demand of
	// the application class regardless of segment-mix randomness.
	// Zero defaults to 0.07.
	StoreFrac float64

	// WorkingSet is the data footprint in bytes (split across threads).
	// Memory-intensive applications exceed the L2 so their reuse lands
	// in the DRAM cache — the behaviour Figure 9 (PSP vs WSP) hinges on.
	WorkingSet uint64

	// HotFraction is the share of accesses that hit a small hot region
	// (locality); the rest sweep the full working set with a wrapping
	// strided pointer, so laps revisit every line.
	HotFraction float64

	// Branchiness adds data-dependent diamonds per segment.
	Branchiness float64

	// CallEvery inserts a helper-function call every n segments
	// (0 = never).
	CallEvery int

	// Threads is the thread count (1 for SPEC; parallel suites use 8).
	Threads int

	// CritEvery inserts a lock-protected critical section every n
	// segments (0 = never); STAMP and WHISPER are sync-heavy.
	CritEvery int

	// Segments scales the loop body; Iterations the outer trip count.
	Segments   int
	Iterations int

	// MemoryIntensive marks the applications Figure 9 evaluates.
	MemoryIntensive bool
}

// kb and mb improve profile-table readability.
const (
	kb = uint64(1) << 10
	mb = uint64(1) << 20
)

// coverIters returns the outer-loop trip count that sweeps the per-thread
// working-set partition the given number of times (in tenths of a pass),
// with floors and caps keeping every run simulable in well under a second
// of wall time. The cold sweep advances 72 bytes per access.
func coverIters(p Profile, passesTenths int) int {
	threads := p.Threads
	if threads < 1 {
		threads = 1
	}
	part := float64(p.WorkingSet) / float64(threads)
	// Average cold accesses per iteration: memory segments dominate at
	// roughly 80% density with the profile's locality split.
	coldPerIter := float64(p.Segments) * 0.8 * (1 - p.HotFraction)
	if coldPerIter < 1 {
		coldPerIter = 1
	}
	iters := int(part / 72 / coldPerIter * float64(passesTenths) / 10)
	if iters < 80 {
		iters = 80
	}
	if iters > 9000 {
		iters = 9000
	}
	return iters
}

// Profiles returns the full application list of Figure 7, in its order.
// lbm and namd appear in both CPU2006 and CPU2017 (the paper's 38
// applications span 39 suite entries).
func Profiles() []Profile {
	var out []Profile
	add := func(p Profile, passesTenths int) {
		p.Iterations = coverIters(p, passesTenths)
		out = append(out, p)
	}

	// --- SPEC CPU2006 (single-threaded) ---
	add(Profile{Name: "bzip2", Suite: CPU2006, StoreFrac: 0.065, StoreWeight: 3, LoadWeight: 4, ALUWeight: 6,
		WorkingSet: 512 * kb, HotFraction: 0.6, Branchiness: 0.5, CallEvery: 12, Threads: 1, Segments: 26}, 15)
	add(Profile{Name: "h264ref", Suite: CPU2006, StoreFrac: 0.06, StoreWeight: 3, LoadWeight: 5, ALUWeight: 7,
		WorkingSet: 512 * kb, HotFraction: 0.65, Branchiness: 0.6, CallEvery: 8, Threads: 1, Segments: 30}, 15)
	add(Profile{Name: "hmmer", Suite: CPU2006, StoreFrac: 0.06, StoreWeight: 4, LoadWeight: 5, ALUWeight: 8,
		WorkingSet: 256 * kb, HotFraction: 0.8, Branchiness: 0.3, CallEvery: 16, Threads: 1, Segments: 28}, 20)
	add(Profile{Name: "lbm", Suite: CPU2006, StoreFrac: 0.12, StoreWeight: 6, LoadWeight: 6, ALUWeight: 3,
		WorkingSet: 3 * mb, HotFraction: 0.1, Branchiness: 0.1, CallEvery: 0, Threads: 1, Segments: 18,
		MemoryIntensive: true}, 22)
	add(Profile{Name: "libquan", Suite: CPU2006, StoreFrac: 0.08, StoreWeight: 4, LoadWeight: 8, ALUWeight: 2,
		WorkingSet: 4 * mb, HotFraction: 0.05, Branchiness: 0.1, CallEvery: 0, Threads: 1, Segments: 18,
		MemoryIntensive: true}, 22)
	add(Profile{Name: "mcf", Suite: CPU2006, StoreFrac: 0.05, StoreWeight: 3, LoadWeight: 8, ALUWeight: 3,
		WorkingSet: 1 * mb, HotFraction: 0.3, Branchiness: 0.5, CallEvery: 20, Threads: 1, Segments: 26}, 15)
	add(Profile{Name: "milc", Suite: CPU2006, StoreFrac: 0.10, StoreWeight: 5, LoadWeight: 7, ALUWeight: 4,
		WorkingSet: 3 * mb, HotFraction: 0.12, Branchiness: 0.15, CallEvery: 0, Threads: 1, Segments: 18,
		MemoryIntensive: true}, 22)
	add(Profile{Name: "namd", Suite: CPU2006, StoreFrac: 0.06, StoreWeight: 4, LoadWeight: 5, ALUWeight: 9,
		WorkingSet: 192 * kb, HotFraction: 0.85, Branchiness: 0.2, CallEvery: 14, Threads: 1, Segments: 30}, 20)

	// --- SPEC CPU2017 (single-threaded) ---
	add(Profile{Name: "dsjeng", Suite: CPU2017, StoreFrac: 0.06, StoreWeight: 3, LoadWeight: 5, ALUWeight: 7,
		WorkingSet: 384 * kb, HotFraction: 0.7, Branchiness: 0.7, CallEvery: 10, Threads: 1, Segments: 28}, 15)
	add(Profile{Name: "imagick", Suite: CPU2017, StoreFrac: 0.07, StoreWeight: 5, LoadWeight: 5, ALUWeight: 8,
		WorkingSet: 512 * kb, HotFraction: 0.55, Branchiness: 0.2, CallEvery: 18, Threads: 1, Segments: 30}, 15)
	add(Profile{Name: "lbm", Suite: CPU2017, StoreFrac: 0.12, StoreWeight: 6, LoadWeight: 6, ALUWeight: 3,
		WorkingSet: 3 * mb, HotFraction: 0.1, Branchiness: 0.1, CallEvery: 0, Threads: 1, Segments: 18,
		MemoryIntensive: true}, 22)
	add(Profile{Name: "leela", Suite: CPU2017, StoreFrac: 0.055, StoreWeight: 3, LoadWeight: 5, ALUWeight: 7,
		WorkingSet: 384 * kb, HotFraction: 0.65, Branchiness: 0.8, CallEvery: 8, Threads: 1, Segments: 26}, 15)
	add(Profile{Name: "nab", Suite: CPU2017, StoreFrac: 0.06, StoreWeight: 4, LoadWeight: 5, ALUWeight: 8,
		WorkingSet: 256 * kb, HotFraction: 0.75, Branchiness: 0.2, CallEvery: 16, Threads: 1, Segments: 28}, 20)
	add(Profile{Name: "namd", Suite: CPU2017, StoreFrac: 0.06, StoreWeight: 4, LoadWeight: 5, ALUWeight: 9,
		WorkingSet: 192 * kb, HotFraction: 0.85, Branchiness: 0.2, CallEvery: 14, Threads: 1, Segments: 30}, 20)
	add(Profile{Name: "xz", Suite: CPU2017, StoreFrac: 0.065, StoreWeight: 4, LoadWeight: 6, ALUWeight: 5,
		WorkingSet: 768 * kb, HotFraction: 0.5, Branchiness: 0.5, CallEvery: 12, Threads: 1, Segments: 26}, 15)

	// --- STAMP (multi-threaded, critical-section-heavy) ---
	add(Profile{Name: "intruder", Suite: STAMP, StoreFrac: 0.065, StoreWeight: 3, LoadWeight: 6, ALUWeight: 5,
		WorkingSet: 1 * mb, HotFraction: 0.4, Branchiness: 0.6, CallEvery: 14, Threads: 8, CritEvery: 8, Segments: 10}, 15)
	add(Profile{Name: "labyrinth", Suite: STAMP, StoreFrac: 0.07, StoreWeight: 4, LoadWeight: 6, ALUWeight: 5,
		WorkingSet: 2 * mb, HotFraction: 0.3, Branchiness: 0.4, CallEvery: 18, Threads: 8, CritEvery: 9, Segments: 10}, 15)
	add(Profile{Name: "ssca2", Suite: STAMP, StoreFrac: 0.06, StoreWeight: 3, LoadWeight: 7, ALUWeight: 4,
		WorkingSet: 3 * mb, HotFraction: 0.2, Branchiness: 0.3, CallEvery: 0, Threads: 8, CritEvery: 10, Segments: 10}, 15)
	add(Profile{Name: "vacation", Suite: STAMP, StoreFrac: 0.065, StoreWeight: 3, LoadWeight: 6, ALUWeight: 5,
		WorkingSet: 2 * mb, HotFraction: 0.35, Branchiness: 0.5, CallEvery: 12, Threads: 8, CritEvery: 8, Segments: 10}, 15)

	// --- NPB (multi-threaded scientific kernels) ---
	npb := func(name string, st, ld, alu int, ws uint64, hot float64, passes int) {
		add(Profile{Name: name, Suite: NPB, StoreFrac: 0.06, StoreWeight: st, LoadWeight: ld, ALUWeight: alu,
			WorkingSet: ws, HotFraction: hot, Branchiness: 0.2, CallEvery: 18, Threads: 8,
			CritEvery: 10, Segments: 10}, passes)
	}
	npb("cg", 3, 7, 5, 3*mb, 0.3, 15)
	npb("ep", 2, 3, 10, 128*kb, 0.9, 20)
	npb("is", 4, 6, 4, 3*mb, 0.2, 15)
	npb("ft", 4, 6, 5, 2*mb, 0.25, 15)
	npb("lu", 4, 6, 6, 2*mb, 0.35, 15)
	npb("mg", 3, 7, 5, 3*mb, 0.2, 15)
	npb("sp", 4, 6, 5, 2*mb, 0.3, 15)

	// --- SPLASH3 (multi-threaded) ---
	spl := func(name string, st, ld, alu int, ws uint64, hot float64, crit int) {
		add(Profile{Name: name, Suite: SPLASH3, StoreFrac: 0.055, StoreWeight: st, LoadWeight: ld, ALUWeight: alu,
			WorkingSet: ws, HotFraction: hot, Branchiness: 0.3, CallEvery: 14, Threads: 8,
			CritEvery: crit, Segments: 10}, 15)
	}
	spl("cholesky", 4, 6, 6, 2*mb, 0.35, 10)
	spl("fft", 4, 6, 5, 2*mb, 0.25, 10)
	spl("radix", 4, 6, 4, 3*mb, 0.2, 10)
	spl("barnes", 3, 7, 5, 2*mb, 0.4, 9)
	spl("raytrace", 3, 7, 6, 1*mb, 0.55, 10)
	spl("lu-cg", 4, 6, 6, 2*mb, 0.35, 10)
	spl("lu-ncg", 4, 6, 6, 2*mb, 0.3, 10)
	spl("ocean-cg", 4, 6, 5, 3*mb, 0.2, 10)
	spl("water-ns", 3, 6, 7, 1*mb, 0.5, 10)
	spl("water-sp", 3, 6, 7, 1*mb, 0.55, 10)

	// --- WHISPER (persistent-memory transactional, write-intensive) ---
	wsp := func(name string, st, ld int, ws uint64, crit int) {
		add(Profile{Name: name, Suite: WHISPER, StoreFrac: 0.13, StoreWeight: st, LoadWeight: ld, ALUWeight: 3,
			WorkingSet: ws, HotFraction: 0.25, Branchiness: 0.4, CallEvery: 16, Threads: 8,
			CritEvery: crit, Segments: 10, MemoryIntensive: true}, 20)
	}
	wsp("rb", 5, 7, 3*mb, 9)
	wsp("tatp", 4, 6, 3*mb, 10)
	wsp("tpcc", 5, 7, 3*mb, 9)

	return out
}

// BySuite returns the profiles of one suite.
func BySuite(s Suite) []Profile {
	var out []Profile
	for _, p := range Profiles() {
		if p.Suite == s {
			out = append(out, p)
		}
	}
	return out
}

// ByName returns the profile with the given name in the given suite, or
// false. Names repeat across suites (lbm, namd), so the suite qualifies.
func ByName(s Suite, name string) (Profile, bool) {
	for _, p := range BySuite(s) {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Find resolves a suite/name pair against the benchmark registry and the
// fuzzing profile sets, matching the suite case-insensitively — the lookup
// every CLI and the serving layer share. The registry wins over a fuzzing
// profile of the same suite and name.
func Find(suite, name string) (Profile, bool) {
	for _, p := range findTable()[name] {
		if strings.EqualFold(string(p.Suite), suite) {
			return p, true
		}
	}
	return Profile{}, false
}

// findTable indexes every profile Find can return by name, registry first,
// built once: the serving layer calls Find on every request.
var findTable = sync.OnceValue(func() map[string][]Profile {
	t := map[string][]Profile{}
	for _, p := range append(Profiles(), FuzzNightlyProfiles()...) {
		t[p.Name] = append(t[p.Name], p)
	}
	return t
})

// MemoryIntensiveProfiles returns the Figure 9 set: the memory-intensive
// CPU2006 applications and the WHISPER workloads.
func MemoryIntensiveProfiles() []Profile {
	var out []Profile
	for _, p := range Profiles() {
		if p.MemoryIntensive && (p.Suite == CPU2006 || p.Suite == WHISPER) {
			out = append(out, p)
		}
	}
	return out
}
