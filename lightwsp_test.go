package lightwsp_test

import (
	"context"
	"errors"
	"os"
	"testing"

	"lightwsp"
)

// TestQuickstart exercises the façade the way README.md shows it.
func TestQuickstart(t *testing.T) {
	ctx := context.Background()
	b := lightwsp.NewProgramBuilder("hello")
	b.Func("main")
	b.MovImm(1, 0x1000)
	b.MovImm(2, 42)
	b.Store(1, 0, 2)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := lightwsp.Open(prog)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rt.Run(ctx, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.PM().Read(0x1000); got != 42 {
		t.Fatalf("persisted value = %d, want 42", got)
	}
}

func TestFacadeCrashRecover(t *testing.T) {
	ctx := context.Background()
	b := lightwsp.NewProgramBuilder("crash")
	b.Func("main")
	b.MovImm(1, 0x2000)
	b.MovImm(3, 0)
	b.MovImm(4, 50)
	loop := b.NewBlock()
	b.Store(1, 0, 3)
	b.AddImm(1, 1, 8)
	b.AddImm(3, 3, 1)
	b.CmpLT(5, 3, 4)
	b.Branch(5, loop, loop+1)
	b.NewBlock()
	b.Halt()
	b.SwitchTo(0)
	b.Jump(loop)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := lightwsp.Open(prog)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := rt.Run(ctx, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.RunWithFailure(ctx, clean.Stats.Cycles/2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("failure not injected")
	}
	if err := lightwsp.VerifyEquivalence(res.Recovered.PM(), clean.PM()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCompileOnly(t *testing.T) {
	b := lightwsp.NewProgramBuilder("c")
	b.Func("main")
	b.MovImm(1, 0x1000)
	for i := 0; i < 80; i++ {
		b.Store(1, int64(8*i), 1)
	}
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := lightwsp.Compile(prog, lightwsp.CompilerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Boundaries < 3 {
		t.Fatalf("boundaries = %d", res.Stats.Boundaries)
	}
	// A zero threshold takes the default; the caller's other knobs stay, as
	// they do through Open.
	res, err = lightwsp.Compile(prog, lightwsp.CompilerConfig{MaxUnroll: 1, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := (lightwsp.CompilerConfig{StoreThreshold: 32, MaxUnroll: 1, DisablePruning: true}); res.Config != want {
		t.Fatalf("compiled under %+v, want %+v", res.Config, want)
	}
}

func TestFacadeSchemesRun(t *testing.T) {
	p, err := lightwsp.BuildWorkload(lightwsp.Workloads()[2]) // hmmer
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range []lightwsp.Scheme{
		lightwsp.BaselineScheme(), lightwsp.PSPIdealScheme(), lightwsp.PPAScheme(),
	} {
		rt, err := lightwsp.Open(p, lightwsp.WithScheme(sch))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := rt.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		if !sys.Run(500_000_000) {
			t.Fatalf("%s did not complete", sch.Name)
		}
	}
}

func TestWorkloadsComplete(t *testing.T) {
	if got := len(lightwsp.Workloads()); got != 39 {
		t.Fatalf("workloads = %d, want 39", got)
	}
}

// TestFacadeDurableSession exercises the session surface the façade
// re-exports: create, advance, reopen after an abandoned handle (the
// kill -9 shape), and a byte-identical resume.
func TestFacadeDurableSession(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	spec := lightwsp.SessionSpec{Suite: "cpu2006", App: "fuzz-st", SnapshotEvery: 600}

	st, err := lightwsp.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.Create("demo", spec)
	if err != nil {
		t.Fatal(err)
	}
	var live []lightwsp.SessionEvent
	emit := func(ev lightwsp.SessionEvent) error { live = append(live, ev); return nil }
	if err := sess.Advance(ctx, 10_000, emit, nil); err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 || !sess.Status().Done {
		t.Fatalf("advance: %d events, done=%v", len(live), sess.Status().Done)
	}
	if _, err := st.Create("demo", spec); !errors.Is(err, lightwsp.ErrSessionExists) {
		t.Fatalf("duplicate create: %v", err)
	}

	// Abandon the store (as a crash would) and reopen the directory.
	st2, err := lightwsp.OpenSessionStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sess2, err := st2.Open(ctx, "demo")
	if err != nil {
		t.Fatal(err)
	}
	var replay []lightwsp.SessionEvent
	if err := sess2.Resume(ctx, 0, func(ev lightwsp.SessionEvent) error {
		replay = append(replay, ev)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(live) {
		t.Fatalf("replay %d events, want %d", len(replay), len(live))
	}
	for i := range live {
		if replay[i] != live[i] {
			t.Fatalf("event %d diverged:\n%+v\n%+v", i, replay[i], live[i])
		}
	}
}

// TestFacadeStoreSeam exercises the public Store surface: a disk store
// round-trips documents, a tiered store reads through its second tier and
// writes back to both, and OpenSessionStore(WithStore) publishes a
// session's snapshots to the shared tier — the seam a fleet of serving
// nodes shares one warm cache through.
func TestFacadeStoreSeam(t *testing.T) {
	type doc struct {
		N int `json:"n"`
	}

	l1 := lightwsp.NewDiskStore(t.TempDir())
	shared := lightwsp.NewDiskStore(t.TempDir())
	tiered := lightwsp.NewTieredStore(l1, shared)

	shared.WriteJSON("only-in-l2", doc{N: 7})
	var got doc
	if !tiered.ReadJSON("only-in-l2", &got) || got.N != 7 {
		t.Fatalf("tiered read-through: got %+v", got)
	}
	tiered.WriteJSON("written-through", doc{N: 9})
	var fromShared doc
	if !shared.ReadJSON("written-through", &fromShared) || fromShared.N != 9 {
		t.Fatalf("write-back missing from shared tier: %+v", fromShared)
	}

	// A session store with a shared tier publishes every snapshot there:
	// advance far enough to snapshot, then watch the shared directory fill.
	ctx := context.Background()
	spec := lightwsp.SessionSpec{Suite: "cpu2006", App: "fuzz-st", SnapshotEvery: 600}
	l2dir := t.TempDir()
	sessDir := t.TempDir()

	st, err := lightwsp.OpenSessionStore(sessDir, lightwsp.WithStore(lightwsp.NewDiskStore(l2dir)))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.Create("handoff", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Advance(ctx, 10_000, func(lightwsp.SessionEvent) error { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if sess.Status().Snapshots == 0 {
		t.Fatal("session never snapshotted; nothing to publish")
	}
	st.Close()
	published, err := os.ReadDir(l2dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(published) == 0 {
		t.Fatal("no snapshot blobs published to the shared tier")
	}

	// Reopening over the same directory with the same shared tier restores
	// the session at its exact position.
	st2, err := lightwsp.OpenSessionStore(sessDir, lightwsp.WithStore(lightwsp.NewDiskStore(l2dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sess2, err := st2.Open(ctx, "handoff")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess2.Status().Total, sess.Status().Total; got != want {
		t.Fatalf("restored session at total %d, want %d", got, want)
	}
}
