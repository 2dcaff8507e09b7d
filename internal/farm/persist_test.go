package farm

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"diskpack/internal/disk"
)

func TestSpecFileRoundTrip(t *testing.T) {
	spec := Spec{
		Name: "roundtrip",
		Groups: []DiskGroup{
			{Count: 8, Params: disk.DefaultParams()},
			{Count: 8, Params: disk.EcoParams()},
		},
		Workload:   SyntheticWorkload(miniSynthetic(300, 2)),
		Alloc:      AllocSpec{Kind: AllocPackV, CapL: 0.7, V: 4},
		Spin:       FixedSpin(120),
		CacheBytes: 16 * disk.GB,
	}
	var buf bytes.Buffer
	if err := EncodeFile(&buf, File{Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	// Kinds serialize by name, not number.
	for _, want := range []string{`"synthetic"`, `"packv"`, `"fixed"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("encoded file missing %s:\n%s", want, buf.String())
		}
	}
	doc, err := DecodeFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Sweep != nil || doc.Spec == nil {
		t.Fatal("round trip changed the document kind")
	}
	if !reflect.DeepEqual(*doc.Spec, spec) {
		t.Fatalf("round trip changed the spec:\nin:  %+v\nout: %+v", spec, *doc.Spec)
	}
	// The decoded spec must actually run.
	if _, err := Run(*doc.Spec, 1); err != nil {
		t.Fatal(err)
	}
}

func TestSweepFileRoundTrip(t *testing.T) {
	sweep := Sweep{
		Name: "grid",
		Base: testSpec(),
		Axes: []Axis{
			{Kind: AxisSpinThreshold, Values: []float64{30, 300}},
			{Kind: AxisFarmSize, Values: []float64{10, 20}, SeedStep: 2},
		},
		Select: Selector{Kind: SelectMinEnergySLO, MaxP95: 25},
	}
	var buf bytes.Buffer
	if err := EncodeFile(&buf, File{Sweep: &sweep}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"threshold"`, `"farm"`, `"slo"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("encoded sweep missing %s", want)
		}
	}
	doc, err := DecodeFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Sweep == nil {
		t.Fatal("sweep document decoded as a spec")
	}
	if !reflect.DeepEqual(*doc.Sweep, sweep) {
		t.Fatalf("round trip changed the sweep:\nin:  %+v\nout: %+v", sweep, *doc.Sweep)
	}
	// Decoded sweeps run and keep their selection rule.
	res, err := RunSweep(*doc.Sweep, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("decoded sweep ran %d points, want 4", len(res.Points))
	}
}

func TestFileValidation(t *testing.T) {
	spec := testSpec()
	sweep := Sweep{Base: spec, Axes: []Axis{{Kind: AxisSpinThreshold, Values: []float64{1}}}}
	var buf bytes.Buffer
	if err := EncodeFile(&buf, File{}); err == nil {
		t.Error("empty document accepted")
	}
	if err := EncodeFile(&buf, File{Spec: &spec, Sweep: &sweep}); err == nil {
		t.Error("two-payload document accepted")
	}
	custom := Sweep{Base: spec, Axes: []Axis{{Kind: AxisCustom, Labels: []string{"a"},
		Apply: func(*Spec, int, []int) error { return nil }}}}
	if err := EncodeFile(&buf, File{Sweep: &custom}); err == nil {
		t.Error("custom axis serialized")
	}
	bad := spec
	bad.CacheBytes = -1
	if err := EncodeFile(&buf, File{Spec: &bad}); err == nil {
		t.Error("invalid spec serialized")
	}
	if _, err := DecodeFile(strings.NewReader(`{"Spec": {"Workload": {"Kind": "nope"}}}`)); err == nil {
		t.Error("unknown workload kind decoded")
	}
	if _, err := DecodeFile(strings.NewReader(`{"Sweep": {"Axes": [{"Kind": "custom", "Labels": ["a"]}]}}`)); err == nil {
		t.Error("custom axis decoded")
	}
	if _, err := DecodeFile(strings.NewReader(`{"Bogus": 1}`)); err == nil {
		t.Error("unknown field decoded")
	}
}

// TestKindNamesRoundTrip: every value of the five persisted kinds —
// AxisCustom aside, which carries a Go function — survives MarshalText
// → UnmarshalText, and its String parses back to it.
func TestKindNamesRoundTrip(t *testing.T) {
	checkKindNames(t, WorkloadBursty)
	checkKindNames(t, AllocExplicit)
	checkKindNames(t, SpinCycleBudget)
	checkKindNames(t, AxisController)
	checkKindNames(t, SelectMinEnergySLOAFR)
	if _, err := AxisCustom.MarshalText(); err == nil {
		t.Error("AxisCustom marshalled")
	}
}

// checkKindNames runs TestKindNamesRoundTrip over kind values 0..last.
func checkKindNames[K interface {
	~int
	String() string
	MarshalText() ([]byte, error)
}, PK interface {
	*K
	UnmarshalText([]byte) error
}](t *testing.T, last K) {
	t.Helper()
	for k := K(0); k <= last; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Errorf("%T %d: MarshalText: %v", k, int(k), err)
			continue
		}
		var back, parsed K
		if err := PK(&back).UnmarshalText(text); err != nil || back != k {
			t.Errorf("%T %d: MarshalText wrote %q, which decodes to %d (%v)", k, int(k), text, int(back), err)
		}
		if err := PK(&parsed).UnmarshalText([]byte(k.String())); err != nil || parsed != k {
			t.Errorf("%T %d: String %q parses to %d (%v)", k, int(k), k, int(parsed), err)
		}
	}
	var bogus K
	if err := PK(&bogus).UnmarshalText([]byte("bogus")); err == nil {
		t.Errorf("%T: an unknown name decoded", bogus)
	}
}

// TestFlagParsersReadTables: the flag grammars take every name their
// kind's table spells, and their errors list the same names.
func TestFlagParsersReadTables(t *testing.T) {
	for k := AllocKind(0); k <= AllocExplicit; k++ {
		if a, err := ParseAlloc(k.String()); err != nil || !reflect.DeepEqual(a, AllocSpec{Kind: k}) {
			t.Errorf("ParseAlloc(%q) = %+v, %v", k, a, err)
		}
		if a, err := ParseAxis("alloc=" + k.String()); err != nil || a.Values[0] != float64(k) {
			t.Errorf("ParseAxis(alloc=%s) = %+v, %v", k, a, err)
		}
	}
	for _, v := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("pack%d", v)
		if a, err := ParseAlloc(name); err != nil || !reflect.DeepEqual(a, AllocSpec{Kind: AllocPackV, V: v}) {
			t.Errorf("ParseAlloc(%q) = %+v, %v", name, a, err)
		}
	}
	for k := SpinKind(0); k <= SpinCycleBudget; k++ {
		s, err := ParseSpin(k.String())
		if k.parameterized() != (err != nil) || err == nil && s != (SpinSpec{Kind: k}) {
			t.Errorf("ParseSpin(%q) = %+v, %v", k, s, err)
		}
	}
	if s, err := ParseSpin("600"); err != nil || s != FixedSpin(600) {
		t.Errorf("ParseSpin(600) = %+v, %v", s, err)
	}
	for k := AxisKind(0); k < AxisCustom; k++ {
		v := "1"
		switch k {
		case AxisAllocKind:
			v = "pack"
		case AxisController:
			v = "static"
		}
		if a, err := ParseAxis(k.String() + "=" + v); err != nil || a.Kind != k {
			t.Errorf("ParseAxis(%s=%s) = %+v, %v", k, v, a, err)
		}
	}
	for k := SelectorKind(0); k <= SelectMinEnergySLOAFR; k++ {
		s, err := ParseSelector(k.String())
		if k.budgeted() != (err != nil) || err == nil && s.Kind != k {
			t.Errorf("ParseSelector(%q) = %+v, %v", k, s, err)
		}
	}
	for _, c := range []struct {
		err   error
		names string
	}{
		{second(ParseAlloc("bogus")), AlgoNames()},
		{second(ParseSpin("bogus")), SpinNames()},
		{second(ParseAxis("bogus=1")), AxisNames()},
		{second(ParseAxis("alloc=bogus")), AllocNames()},
		{second(ParseSelector("bogus")), SelectorNames()},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), "(have "+c.names+")") &&
			!strings.Contains(c.err.Error(), "one of "+c.names) {
			t.Errorf("error %v does not list %s", c.err, c.names)
		}
	}
}

// second returns a call's error.
func second[T any](_ T, err error) error { return err }
