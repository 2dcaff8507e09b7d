package main

import (
	"fmt"
	"math"
	"reflect"
)

// digest is a 64-bit hash over a value's exact contents: floats by
// their bit patterns, every field of every struct, every element of
// every slice, pointers followed. Two results digest equal only when
// they are bit-identical, which is what a perf-only change must keep.
// It detects accidental differences; it is not collision-resistant.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) word(x uint64) {
	h := (uint64(*d) ^ x) * 0x9e3779b97f4a7c15
	*d = digest(h ^ h>>32)
}

func (d *digest) str(s string) {
	d.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.word(uint64(s[i]))
	}
}

// add folds v into the digest. Maps, channels and funcs have no
// deterministic content and are refused.
func (d *digest) add(v any) error { return d.value(reflect.ValueOf(v)) }

func (d *digest) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Invalid:
		d.word(0)
	case reflect.Bool:
		if v.Bool() {
			d.word(1)
		} else {
			d.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.word(math.Float64bits(v.Float()))
	case reflect.String:
		d.str(v.String())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			d.word(0)
			return nil
		}
		d.word(1)
		return d.value(v.Elem())
	case reflect.Slice, reflect.Array:
		n := v.Len()
		d.word(uint64(n))
		if v.Type().Elem().Kind() == reflect.Float64 {
			for i := 0; i < n; i++ {
				d.word(math.Float64bits(v.Index(i).Float()))
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if err := d.value(v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := d.value(v.Field(i)); err != nil {
				return fmt.Errorf("%s.%s: %w", v.Type().Name(), v.Type().Field(i).Name, err)
			}
		}
	default:
		return fmt.Errorf("cannot digest a %s", v.Kind())
	}
	return nil
}
