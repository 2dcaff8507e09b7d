package farm

import (
	"encoding/json"
	"fmt"
	"io"
)

// Scenario persistence: a Spec or a Sweep serialized as JSON, so
// scenarios run without recompiling (cmd/disksim -spec file.json). The
// enum kinds marshal as their names from names.go — "pack",
// "breakeven", "threshold" — so files stay readable and diffable.
// Custom axes carry Go functions and are rejected by Encode/Decode.

// File is the on-disk scenario document: exactly one of Spec or Sweep.
type File struct {
	Spec  *Spec  `json:",omitempty"`
	Sweep *Sweep `json:",omitempty"`
}

// Validate checks the one-of constraint and the payload.
func (f File) Validate() error {
	switch {
	case f.Spec == nil && f.Sweep == nil:
		return fmt.Errorf("farm: spec file declares neither a Spec nor a Sweep")
	case f.Spec != nil && f.Sweep != nil:
		return fmt.Errorf("farm: spec file declares both a Spec and a Sweep")
	case f.Spec != nil:
		return f.Spec.Validate()
	default:
		for _, a := range f.Sweep.Axes {
			if a.Kind == AxisCustom {
				return fmt.Errorf("farm: custom axes cannot be serialized")
			}
		}
		return f.Sweep.Validate()
	}
}

// EncodeFile writes the document as indented JSON.
func EncodeFile(w io.Writer, f File) error {
	if err := f.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// DecodeFile reads and validates a scenario document.
func DecodeFile(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("farm: decoding spec file: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}
