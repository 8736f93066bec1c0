package compiler

import (
	"testing"

	"lightwsp/internal/workload"
)

// TestPassFiringCounts pins how often the optional passes fire on every
// evaluation and smoke profile at the default configuration (store
// threshold 32, unroll cap 4). Unrolling and combining fire on none of
// them: the generator emits no inner loops, so the only natural loop is
// each program's outer loop, which the unroller rejects, and no region
// reaches the threshold, so partitioning leaves no split boundary for
// combining to remove. A generator or compiler change that starts or stops
// a pass fails here by profile name.
func TestPassFiringCounts(t *testing.T) {
	// Unrolled loops, combined boundaries, pruned checkpoints.
	want := map[string][3]int{
		"CPU2006/bzip2":    {0, 0, 42},
		"CPU2006/h264ref":  {0, 0, 54},
		"CPU2006/hmmer":    {0, 0, 30},
		"CPU2006/lbm":      {0, 0, 18},
		"CPU2006/libquan":  {0, 0, 18},
		"CPU2006/mcf":      {0, 0, 30},
		"CPU2006/milc":     {0, 0, 18},
		"CPU2006/namd":     {0, 0, 42},
		"CPU2017/dsjeng":   {0, 0, 42},
		"CPU2017/imagick":  {0, 0, 30},
		"CPU2017/lbm":      {0, 0, 18},
		"CPU2017/leela":    {0, 0, 54},
		"CPU2017/nab":      {0, 0, 30},
		"CPU2017/namd":     {0, 0, 42},
		"CPU2017/xz":       {0, 0, 42},
		"STAMP/intruder":   {0, 0, 30},
		"STAMP/labyrinth":  {0, 0, 30},
		"STAMP/ssca2":      {0, 0, 30},
		"STAMP/vacation":   {0, 0, 30},
		"NPB/cg":           {0, 0, 30},
		"NPB/ep":           {0, 0, 29},
		"NPB/is":           {0, 0, 30},
		"NPB/ft":           {0, 0, 30},
		"NPB/lu":           {0, 0, 30},
		"NPB/mg":           {0, 0, 30},
		"NPB/sp":           {0, 0, 30},
		"SPLASH3/cholesky": {0, 0, 30},
		"SPLASH3/fft":      {0, 0, 30},
		"SPLASH3/radix":    {0, 0, 30},
		"SPLASH3/barnes":   {0, 0, 30},
		"SPLASH3/raytrace": {0, 0, 30},
		"SPLASH3/lu-cg":    {0, 0, 30},
		"SPLASH3/lu-ncg":   {0, 0, 30},
		"SPLASH3/ocean-cg": {0, 0, 21},
		"SPLASH3/water-ns": {0, 0, 30},
		"SPLASH3/water-sp": {0, 0, 30},
		"WHISPER/rb":       {0, 0, 30},
		"WHISPER/tatp":     {0, 0, 30},
		"WHISPER/tpcc":     {0, 0, 30},
		"CPU2006/fuzz-st":  {0, 0, 30},
		"STAMP/fuzz-mt":    {0, 0, 33},
	}
	profiles := append(workload.Profiles(), workload.FuzzSmokeProfiles()...)
	if len(profiles) != len(want) {
		t.Fatalf("%d profiles, %d pinned", len(profiles), len(want))
	}
	for _, p := range profiles {
		prog, err := workload.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compile(prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		name := string(p.Suite) + "/" + p.Name
		got := [3]int{res.Stats.UnrolledLoops, res.Stats.CombinedBoundaries, res.Stats.PrunedCheckpoints}
		if got != want[name] {
			t.Errorf("%s: unrolled, combined, pruned = %v, want %v", name, got, want[name])
		}
	}
}
