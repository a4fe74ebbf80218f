package brep

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestAsLoadedCoversEveryField ties cadShape.asLoaded to the struct
// tags: for every number an encoded shape can hold, a -0 comes out of
// asLoaded with the sign a JSON round trip leaves it, and a NaN makes
// asLoaded fail as it makes json.Marshal fail. A field added to cadShape
// or cadBoundary without a matching change to asLoaded fails here.
func TestAsLoadedCoversEveryField(t *testing.T) {
	grown := func(cs *cadShape) []floatLeaf {
		return floatLeaves(reflect.ValueOf(cs).Elem(), "shape", true, map[reflect.Type]int{})
	}
	n := len(grown(&cadShape{}))
	if n < 20 {
		t.Fatalf("only %d numbers reached; the walk is broken", n)
	}
	for i := 0; i < n; i++ {
		var cs cadShape
		leaf := grown(&cs)[i]
		leaf.v.SetFloat(math.Copysign(0, -1))
		text, err := json.Marshal(cs)
		if err != nil {
			t.Fatal(err)
		}
		var loaded cadShape
		if err := json.Unmarshal(text, &loaded); err != nil {
			t.Fatal(err)
		}
		wantNeg := false
		for _, l := range floatLeaves(reflect.ValueOf(&loaded).Elem(), "shape", false, map[reflect.Type]int{}) {
			if l.path == leaf.path {
				wantNeg = math.Signbit(l.v.Float())
			}
		}
		if err := cs.asLoaded(); err != nil {
			t.Fatalf("%s = -0: %v", leaf.path, err)
		}
		if got := math.Signbit(leaf.v.Float()); got != wantNeg {
			t.Errorf("%s = -0: asLoaded leaves sign bit %v, JSON leaves %v", leaf.path, got, wantNeg)
		}

		var bad cadShape
		leaf = grown(&bad)[i]
		leaf.v.SetFloat(math.NaN())
		if _, err := json.Marshal(bad); err == nil {
			t.Fatalf("%s = NaN: json.Marshal accepted it", leaf.path)
		}
		if err := bad.asLoaded(); err == nil {
			t.Errorf("%s = NaN: asLoaded accepted what Save rejects", leaf.path)
		}
	}
}

// floatLeaf is one float64 field reached from an encoded shape.
type floatLeaf struct {
	path string
	v    reflect.Value
}

// floatLeaves lists the float64 fields reachable from v, each with its
// path. With grow set it first allocates every nil pointer and gives
// every empty slice one element, following a pointer type at most twice
// on one path, so nested boundary parts are reached one level down.
func floatLeaves(v reflect.Value, path string, grow bool, seen map[reflect.Type]int) []floatLeaf {
	switch v.Kind() {
	case reflect.Float64:
		return []floatLeaf{{path, v}}
	case reflect.Pointer:
		if v.IsNil() {
			if !grow || seen[v.Type()] == 2 {
				return nil
			}
			v.Set(reflect.New(v.Type().Elem()))
		}
		seen[v.Type()]++
		defer func() { seen[v.Type()]-- }()
		return floatLeaves(v.Elem(), path, grow, seen)
	case reflect.Slice:
		if grow && v.Len() == 0 {
			if e := v.Type().Elem(); e.Kind() == reflect.Pointer && seen[e] == 2 {
				return nil
			}
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		var out []floatLeaf
		for i := 0; i < v.Len(); i++ {
			out = append(out, floatLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), grow, seen)...)
		}
		return out
	case reflect.Struct:
		var out []floatLeaf
		for i := 0; i < v.NumField(); i++ {
			out = append(out, floatLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, grow, seen)...)
		}
		return out
	}
	return nil
}
