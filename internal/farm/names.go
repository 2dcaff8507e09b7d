package farm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Every persisted kind has one name table, indexed by the kind's value
// (each kind is dense from zero). String, MarshalText and UnmarshalText
// read it, so spec files, shard manifests and journals carry the same
// names the CLI flags take, and a kind cannot print under a name that
// does not parse. The flag parsers (ParseAxis, ParseSelector,
// ParseAlloc, ParseSpin) and the lists their errors and the CLIs' help
// show read the same tables.

var workloadKinds = kindTable[WorkloadKind]{"workload kind", []string{
	WorkloadTrace:     "trace",
	WorkloadSynthetic: "synthetic",
	WorkloadNERSC:     "nersc",
	WorkloadBursty:    "bursty",
}}

var allocKinds = kindTable[AllocKind]{"allocation kind", []string{
	AllocPack:               "pack",
	AllocPackV:              "packv",
	AllocRandom:             "random",
	AllocFirstFit:           "firstfit",
	AllocFirstFitDecreasing: "ffd",
	AllocBestFit:            "bestfit",
	AllocChangHwangPark:     "chp",
	AllocExplicit:           "explicit",
}}

var spinKinds = kindTable[SpinKind]{"spin kind", []string{
	SpinBreakEven:   "breakeven",
	SpinFixed:       "fixed",
	SpinNever:       "never",
	SpinImmediate:   "immediate",
	SpinAdaptive:    "adaptive",
	SpinRandomized:  "randomized",
	SpinTailAware:   "tailaware",
	SpinCycleBudget: "cyclecap",
}}

var axisKinds = kindTable[AxisKind]{"axis kind", []string{
	AxisSpinThreshold: "threshold",
	AxisFarmSize:      "farm",
	AxisCacheBytes:    "cache",
	AxisCapL:          "L",
	AxisPackV:         "v",
	AxisArrivalRate:   "rate",
	AxisAllocKind:     "alloc",
	AxisSeed:          "seed",
	AxisController:    "control",
	AxisCustom:        "custom",
}}

// serialAxes is the part of axisKinds a file or a flag can name: every
// kind before AxisCustom, whose Apply function has no text form.
var serialAxes = kindTable[AxisKind]{axisKinds.what, axisKinds.names[:AxisCustom]}

var selectorKinds = kindTable[SelectorKind]{"selector kind", []string{
	SelectNone:            "none",
	SelectMinEnergySLO:    "slo",
	SelectKnee:            "knee",
	SelectPareto:          "pareto",
	SelectMinEnergySLOAFR: "slo-afr",
}}

// kindTable is one kind's name table: names[k] is kind k's only
// spelling, and what names the kind in errors.
type kindTable[K ~int] struct {
	what  string
	names []string
}

// has reports whether k is in the table.
func (t kindTable[K]) has(k K) bool { return k >= 0 && int(k) < len(t.names) }

// name returns k's name, or its Go syntax for a value outside the
// table.
func (t kindTable[K]) name(k K) string {
	if !t.has(k) {
		return fmt.Sprintf("%T(%d)", k, int(k))
	}
	return t.names[k]
}

// marshal is MarshalText: a value outside the table has no name to
// write.
func (t kindTable[K]) marshal(k K) ([]byte, error) {
	if !t.has(k) {
		return nil, fmt.Errorf("farm: %s %d cannot be serialized", t.what, int(k))
	}
	return []byte(t.names[k]), nil
}

// parse resolves a name; the error lists the table.
func (t kindTable[K]) parse(s string) (K, error) {
	if i := slices.Index(t.names, s); i >= 0 {
		return K(i), nil
	}
	return 0, fmt.Errorf("farm: unknown %s %q (have %s)", t.what, s, t.list())
}

// unmarshal is UnmarshalText.
func (t kindTable[K]) unmarshal(text []byte, k *K) error {
	v, err := t.parse(string(text))
	if err == nil {
		*k = v
	}
	return err
}

// list spells the table for errors and help: "a, b, c".
func (t kindTable[K]) list() string { return strings.Join(t.names, ", ") }

// subset returns the names of the kinds keep accepts, in kind order.
func (t kindTable[K]) subset(keep func(K) bool) []string {
	var names []string
	for k, n := range t.names {
		if keep(K(k)) {
			names = append(names, n)
		}
	}
	return names
}

// String names the kind.
func (k WorkloadKind) String() string { return workloadKinds.name(k) }

// MarshalText renders the kind as its name.
func (k WorkloadKind) MarshalText() ([]byte, error) { return workloadKinds.marshal(k) }

// UnmarshalText parses a WorkloadKind name.
func (k *WorkloadKind) UnmarshalText(text []byte) error { return workloadKinds.unmarshal(text, k) }

// String names the kind.
func (k AllocKind) String() string { return allocKinds.name(k) }

// MarshalText renders the kind as its name.
func (k AllocKind) MarshalText() ([]byte, error) { return allocKinds.marshal(k) }

// UnmarshalText parses an AllocKind name.
func (k *AllocKind) UnmarshalText(text []byte) error { return allocKinds.unmarshal(text, k) }

// String names the kind.
func (k SpinKind) String() string { return spinKinds.name(k) }

// MarshalText renders the kind as its name.
func (k SpinKind) MarshalText() ([]byte, error) { return spinKinds.marshal(k) }

// UnmarshalText parses a SpinKind name.
func (k *SpinKind) UnmarshalText(text []byte) error { return spinKinds.unmarshal(text, k) }

// String names the kind (the -sweep flag vocabulary).
func (k AxisKind) String() string { return axisKinds.name(k) }

// MarshalText renders the kind as its name; custom axes carry Go
// functions and cannot be serialized.
func (k AxisKind) MarshalText() ([]byte, error) { return serialAxes.marshal(k) }

// UnmarshalText parses an AxisKind name (custom is rejected — a file
// cannot carry the Apply function).
func (k *AxisKind) UnmarshalText(text []byte) error { return serialAxes.unmarshal(text, k) }

// String names the kind.
func (k SelectorKind) String() string { return selectorKinds.name(k) }

// MarshalText renders the kind as its name.
func (k SelectorKind) MarshalText() ([]byte, error) { return selectorKinds.marshal(k) }

// UnmarshalText parses a SelectorKind name.
func (k *SelectorKind) UnmarshalText(text []byte) error { return selectorKinds.unmarshal(text, k) }

// AxisNames lists the dimensions ParseAxis takes: "threshold, farm,
// ...".
func AxisNames() string { return serialAxes.list() }

// AllocNames lists the allocation kinds, the values of an alloc axis.
func AllocNames() string { return allocKinds.list() }

// AlgoNames lists what ParseAlloc takes: the allocation kinds and
// packN.
func AlgoNames() string {
	return AllocNames() + ", " + AllocPack.String() + "N for Pack_Disks_v with group size N"
}

// SpinNames lists the spin kinds ParseSpin takes by name: those that
// take no parameter.
func SpinNames() string {
	return strings.Join(spinKinds.subset(func(k SpinKind) bool { return !k.parameterized() }), ", ")
}

// SelectorNames lists what ParseSelector takes: the rules that need no
// budget by name, and the budgeted ones by their grammar.
func SelectorNames() string {
	names := selectorKinds.subset(func(k SelectorKind) bool { return !k.budgeted() })
	return strings.Join(append(names, SelectMinEnergySLO.String()+"=SECONDS[,afr=RATE]"), ", ")
}

// ParseAlloc parses the CLIs' -algo grammar (AlgoNames): an allocation
// kind's name, or packN for Pack_Disks_v with group size N, so pack4
// is AllocPackV with V = 4. The spec carries Kind and V; the caller
// sets CapL and, for AllocRandom, Disks.
func ParseAlloc(s string) (AllocSpec, error) {
	if n, ok := strings.CutPrefix(s, AllocPack.String()); ok {
		if v, err := strconv.Atoi(n); err == nil && v >= 1 {
			return AllocSpec{Kind: AllocPackV, V: v}, nil
		}
	}
	k, err := allocKinds.parse(s)
	if err != nil {
		return AllocSpec{}, fmt.Errorf("farm: unknown allocator %q (have %s)", s, AlgoNames())
	}
	return AllocSpec{Kind: k}, nil
}

// ParseSpin parses the CLIs' -threshold grammar: a fixed idleness
// threshold in seconds, or the name of a spin kind that takes no
// parameter (SpinNames).
func ParseSpin(s string) (SpinSpec, error) {
	if k, err := spinKinds.parse(s); err == nil && !k.parameterized() {
		return SpinSpec{Kind: k}, nil
	}
	th, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return SpinSpec{}, fmt.Errorf("farm: spin threshold %q is neither seconds nor one of %s", s, SpinNames())
	}
	return FixedSpin(th), nil
}
