package experiments

import (
	"reflect"
	"testing"

	"lightwsp/internal/compiler"
	"lightwsp/internal/machine"
	"lightwsp/internal/workload"
)

// perturbField nudges one struct field to a different value, by kind.
func perturbField(t *testing.T, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 0.25)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "x")
	default:
		t.Fatalf("field kind %v not handled — extend runKey and this test", f.Kind())
	}
}

func TestRunKeyEqualForEqualInputs(t *testing.T) {
	p, _ := workload.ByName(workload.CPU2006, "hmmer")
	sch := LightWSP()
	// Two independently resolved configurations with mutators of equal
	// effect (distinct closures) must produce the same key: the key is
	// content-addressed, not identity-addressed.
	cfgA, ccfgA := ResolveConfigs(p, compiler.Config{}, func(c *machine.Config) { c.NUMAExtra = 12 })
	cfgB, ccfgB := ResolveConfigs(p, compiler.Config{}, func(c *machine.Config) { c.NUMAExtra = 12 })
	if runKey(p, sch, cfgA, ccfgA) != runKey(p, sch, cfgB, ccfgB) {
		t.Fatal("equal configurations produced different run keys")
	}
}

// TestRunKeyDistinguishesEveryField mutates every field of every struct
// participating in the run key and requires the key to change. It fails the
// moment a field is added to Profile, Scheme, machine.Config or
// compiler.Config without extending runKey — the failure mode that made the
// old fmt.Sprintf("%+v") key fragile in the opposite direction.
func TestRunKeyDistinguishesEveryField(t *testing.T) {
	p, _ := workload.ByName(workload.CPU2006, "hmmer")
	sch := LightWSP()
	cfg, ccfg := ResolveConfigs(p, compiler.Config{})
	rekey := func() string { return runKey(p, sch, cfg, ccfg) }
	base := rekey()

	try := func(structName string, ptr interface{}) {
		v := reflect.ValueOf(ptr).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			orig := reflect.New(f.Type()).Elem()
			orig.Set(f)
			perturbField(t, f)
			if rekey() == base {
				t.Errorf("%s.%s: field change not reflected in run key", structName, v.Type().Field(i).Name)
			}
			f.Set(orig)
		}
	}
	try("workload.Profile", &p)
	try("machine.Scheme", &sch)
	try("machine.Config", &cfg)
	try("compiler.Config", &ccfg)
	if rekey() != base {
		t.Fatal("field restore failed; test is self-inconsistent")
	}
}

func TestKeyHashStable(t *testing.T) {
	if keyHash("a") == keyHash("b") {
		t.Fatal("distinct keys hash equal")
	}
	if keyHash("a") != keyHash("a") {
		t.Fatal("hash not deterministic")
	}
	if len(keyHash("a")) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(keyHash("a")))
	}
}
