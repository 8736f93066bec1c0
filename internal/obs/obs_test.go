package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightwsp/internal/probe"
)

func TestNewTraceIDIsValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if !ValidTraceID(id) {
			t.Fatalf("NewTraceID() = %q, not valid", id)
		}
		if len(id) != 16 {
			t.Fatalf("NewTraceID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestValidTraceID(t *testing.T) {
	for _, tc := range []struct {
		id string
		ok bool
	}{
		{"abc123", true},
		{"a.b-c_d", true},
		{"", false},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false},
		{"has space", false},
		{"has\"quote", false},
		{"has\nnewline", false},
		{"curl/8.0", false}, // slash would escape a file path
	} {
		if got := ValidTraceID(tc.id); got != tc.ok {
			t.Errorf("ValidTraceID(%q) = %v, want %v", tc.id, got, tc.ok)
		}
	}
}

func TestNewLoggerParses(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("hello", "k", "v")
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("json log line does not parse: %v\n%s", err, buf.String())
	}
	if line["msg"] != "hello" || line["k"] != "v" {
		t.Fatalf("unexpected log line %v", line)
	}

	buf.Reset()
	log, err = NewLogger(&buf, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("dropped")
	if buf.Len() != 0 {
		t.Fatalf("info line should be below warn threshold, got %q", buf.String())
	}
	log.Warn("kept")
	if !strings.Contains(buf.String(), "kept") {
		t.Fatalf("warn line missing: %q", buf.String())
	}

	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level should error")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format should error")
	}
	// Empty means defaults, not an error.
	if _, err := NewLogger(&buf, "", ""); err != nil {
		t.Fatalf("empty level/format should default: %v", err)
	}
}

func TestContextCarry(t *testing.T) {
	rec := NewFlightRecorder("t1", 8)
	src := WithTraceID(context.Background(), "t1")
	src = WithRecorder(src, rec)

	// CarryTelemetry moves both values onto a detached context — the
	// Runner's singleflight exec context, which must not inherit the
	// requester's cancellation but must keep its identity.
	dst := CarryTelemetry(context.Background(), src)
	if got := TraceID(dst); got != "t1" {
		t.Fatalf("TraceID = %q, want t1", got)
	}
	if got := Recorder(dst); got != rec {
		t.Fatalf("Recorder not carried")
	}

	// A bare context yields zero values, not panics.
	if TraceID(context.Background()) != "" || Recorder(context.Background()) != nil {
		t.Fatal("bare context should carry nothing")
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	rec := NewFlightRecorder("wrap", 4)
	for i := 0; i < 10; i++ {
		rec.Emit(probe.Event{Kind: probe.RegionClose, Cycle: uint64(i)})
	}
	if rec.Total() != 10 {
		t.Fatalf("Total = %d, want 10", rec.Total())
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4 (the cap)", len(evs))
	}
	// The ring keeps the newest events in emission order: cycles 6..9.
	for i, e := range evs {
		if want := uint64(6 + i); e.Cycle != want {
			t.Fatalf("Events[%d].Cycle = %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestFlightRecorderDump(t *testing.T) {
	dir := t.TempDir()
	rec := NewFlightRecorder("dump-test", 16)
	rec.SetRun("cpu2006", "fuzz-st", "lightwsp")
	rec.SetSession("alpha")
	rec.Emit(probe.Event{Kind: probe.RegionOpen, Cycle: 1, Core: 0, MC: -1})
	rec.Emit(probe.Event{Kind: probe.WPQFlush, Cycle: 2, Core: -1, MC: 1, Arg: 3})

	path, err := rec.Dump(dir, "deadline", context.DeadlineExceeded)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "dump-test.flight.json" {
		t.Fatalf("dump path %q, want <traceID>.flight.json", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("dump does not parse: %v", err)
	}
	if d.TraceID != "dump-test" || d.Reason != "deadline" || d.Suite != "cpu2006" {
		t.Fatalf("unexpected dump header: %+v", d)
	}
	if d.Session != "alpha" {
		t.Fatalf("dump session %q, want the tagged session ID", d.Session)
	}
	if d.TotalEvents != 2 || len(d.Events) != 2 {
		t.Fatalf("events: total %d, kept %d; want 2/2", d.TotalEvents, len(d.Events))
	}
	if d.Events[0].Kind != probe.RegionOpen.String() {
		t.Fatalf("first event kind %q", d.Events[0].Kind)
	}
	if d.Error == "" {
		t.Fatal("dump should record the run error")
	}
	// No temp files left behind by the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dump dir has %d entries, want only the dump", len(entries))
	}
}

// TestFlightRecorderWithoutEvents: a recorder that never saw an event (a
// memo hit's) holds no ring, and its dump is empty but well formed. The
// first event allocates the whole ring.
func TestFlightRecorderWithoutEvents(t *testing.T) {
	rec := NewFlightRecorder("idle", 0)
	if rec.ring != nil {
		t.Fatalf("ring allocated before the first event (cap %d)", cap(rec.ring))
	}
	if evs := rec.Events(); len(evs) != 0 {
		t.Fatalf("Events() = %v, want none", evs)
	}
	path, err := rec.Dump(t.TempDir(), "drain-interrupted", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"total_events": 0`, `"events": []`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Fatalf("dump lacks %s:\n%s", want, data)
		}
	}
	rec.Emit(probe.Event{Kind: probe.RegionOpen, Cycle: 1})
	if cap(rec.ring) != DefaultFlightCap || len(rec.Events()) != 1 {
		t.Fatalf("after one event: ring cap %d, %d events; want %d, 1",
			cap(rec.ring), len(rec.Events()), DefaultFlightCap)
	}
}

func TestLoggerLevelsAreCaseInsensitive(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "DEBUG", "TEXT")
	if err != nil {
		t.Fatal(err)
	}
	log.Log(context.Background(), slog.LevelDebug, "x")
	if buf.Len() == 0 {
		t.Fatal("DEBUG level should pass debug lines")
	}
}
