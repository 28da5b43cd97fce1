package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"tmdb/internal/types"
	"tmdb/internal/value"
)

// TestMutationInvariantsRandom drives a sealed table through random
// InsertSealed, Delete, DeleteRows, DeleteWhere and Unseal → Insert → Seal
// steps and checks, after every step, the invariants the copy-on-write
// write path relies on: the row snapshot is strictly increasing under
// value.Compare, the set view is exactly the set of the rows, every index
// equals a fresh rebuild, and the contents match a map model. The attribute
// n holds both ints and floats, so rows that differ only in 1 versus 1.0
// are equal and collide.
func TestMutationInvariantsRandom(t *testing.T) {
	elem := types.Tuple(
		types.F("n", types.Float),
		types.F("s", types.String),
		types.F("c", types.SetOf(types.Int)),
	)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tab := NewTable("T", elem)
			for _, attrs := range [][]string{{"n"}, {"s", "n"}} {
				if err := tab.CreateIndex(attrs...); err != nil {
					t.Fatal(err)
				}
			}
			model := map[string]bool{}
			for i := 0; i < 40; i++ {
				v := randomRow(rng)
				tab.MustInsert(v)
				model[value.Key(v)] = true
			}
			tab.Seal()
			checkInvariants(t, tab, model, "seal")
			for step := 0; step < 150; step++ {
				name := applyRandomStep(t, rng, tab, model)
				checkInvariants(t, tab, model, fmt.Sprintf("step %d (%s)", step, name))
			}
		})
	}
}

// randomRow draws from small domains, so inserts collide and deletes hit.
func randomRow(rng *rand.Rand) value.Value {
	n := value.Int(int64(rng.Intn(5)))
	if rng.Intn(3) == 0 {
		n = value.Float(float64(rng.Intn(10)) / 2)
	}
	var c []value.Value
	for i := rng.Intn(3); i > 0; i-- {
		c = append(c, value.Int(int64(rng.Intn(3))))
	}
	return value.TupleOf(
		value.F("n", n),
		value.F("s", value.Str(string(rune('p'+rng.Intn(3))))),
		value.F("c", value.SetOf(c...)),
	)
}

// applyRandomStep runs one random mutation on tab, mirrors it in model (keyed
// by value.Key, which equates values Compare equates), and names it.
func applyRandomStep(t *testing.T, rng *rand.Rand, tab *Table, model map[string]bool) string {
	t.Helper()
	// pick returns a present row half the time, a random one otherwise.
	pick := func() value.Value {
		if rows := tab.Rows(); len(rows) > 0 && rng.Intn(2) == 0 {
			return rows[rng.Intn(len(rows))]
		}
		return randomRow(rng)
	}
	switch rng.Intn(5) {
	case 0:
		v := randomRow(rng)
		added, err := tab.InsertSealed(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := !model[value.Key(v)]; added != want {
			t.Fatalf("InsertSealed(%s) added=%v, want %v", v, added, want)
		}
		model[value.Key(v)] = true
		return "InsertSealed"
	case 1:
		v := pick()
		removed, err := tab.Delete(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := model[value.Key(v)]; removed != want {
			t.Fatalf("Delete(%s) removed=%v, want %v", v, removed, want)
		}
		delete(model, value.Key(v))
		return "Delete"
	case 2:
		var vs []value.Value
		for i := rng.Intn(5); i > 0; i-- {
			vs = append(vs, pick())
		}
		if len(vs) > 0 && rng.Intn(2) == 0 {
			vs = append(vs, vs[0]) // a victim listed twice is removed once
		}
		want := map[string]bool{}
		for _, v := range vs {
			if model[value.Key(v)] {
				want[value.Key(v)] = true
			}
		}
		n, err := tab.DeleteRows(vs)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("DeleteRows removed %d, want %d", n, len(want))
		}
		for k := range want {
			delete(model, k)
		}
		return "DeleteRows"
	case 3:
		cut := value.Str(string(rune('p' + rng.Intn(3))))
		want := 0
		for _, r := range tab.Rows() {
			if value.Equal(r.MustGet("s"), cut) {
				want++
				delete(model, value.Key(r))
			}
		}
		n, err := tab.DeleteWhere(func(r value.Value) bool { return value.Equal(r.MustGet("s"), cut) })
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("DeleteWhere removed %d, want %d", n, want)
		}
		return "DeleteWhere"
	default:
		tab.Unseal()
		for i := rng.Intn(6); i > 0; i-- {
			v := randomRow(rng)
			if rng.Intn(4) == 0 && len(tab.Rows()) > 0 {
				v = tab.Rows()[0] // a duplicate the Seal must drop
			}
			tab.MustInsert(v)
			model[value.Key(v)] = true
		}
		tab.Seal()
		return "Unseal+Insert+Seal"
	}
}

func checkInvariants(t *testing.T, tab *Table, model map[string]bool, at string) {
	t.Helper()
	rows := tab.Rows()
	for i := 1; i < len(rows); i++ {
		if value.Compare(rows[i-1], rows[i]) >= 0 {
			t.Fatalf("%s: rows %d and %d are not strictly increasing: %s, %s", at, i-1, i, rows[i-1], rows[i])
		}
	}
	if len(rows) != len(model) {
		t.Fatalf("%s: %d rows, model has %d", at, len(rows), len(model))
	}
	for _, r := range rows {
		if !model[value.Key(r)] {
			t.Fatalf("%s: row %s is not in the model", at, r)
		}
	}
	set, want := tab.AsSet(), value.SetOf(rows...)
	if !value.Equal(set, want) || value.Key(set) != value.Key(want) || set.Len() != len(rows) {
		t.Fatalf("%s: AsSet() = %s, SetOf(Rows()) = %s", at, set, want)
	}
	for _, attrs := range tab.Indexes() {
		ix, _ := tab.IndexOn(attrs)
		fresh, err := BuildHashIndex(tab, attrs...)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != fresh.Len() {
			t.Fatalf("%s: index %s holds %d rows, a rebuild %d", at, ix.Name(), ix.Len(), fresh.Len())
		}
		for d := range ix.levels {
			if len(ix.levels[d]) != len(fresh.levels[d]) {
				t.Fatalf("%s: index %s level %d has %d keys, a rebuild %d",
					at, ix.Name(), d, len(ix.levels[d]), len(fresh.levels[d]))
			}
			// Buckets keep insertion order, so compare them as sets; a
			// bucket holding a row twice would show as a length mismatch.
			for k, b := range ix.levels[d] {
				fb := fresh.levels[d][k]
				if len(b) != len(fb) || !value.Equal(value.SetOf(b...), value.SetOf(fb...)) {
					t.Fatalf("%s: index %s level %d bucket %q = %v, a rebuild %v", at, ix.Name(), d, k, b, fb)
				}
			}
		}
	}
}
