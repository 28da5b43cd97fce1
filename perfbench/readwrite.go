package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/value"
)

// read_write: one embedded client runs rounds of one write to Y followed
// by four reads of Y. The writes alternate between inserting one row and
// deleting that same row, so |Y| stays constant. A write advances Y's
// epoch, so exactly the first read of each round replans and recollects
// Y's statistics: reads are 75% cache hits and 25% replans, which puts p50
// inside the hit mode and p90 inside the replanning mode, 15 rank points
// from the boundary. Storage does the writes, stats and the planner the
// replanning; the server is idle and exec does little.

const (
	rwQuery = "SELECT y FROM Y y WHERE y.b = %d"
	// rwMarker is the d value of the row each insert round adds; the
	// generator never produces it.
	rwMarker = -1000000007
	// rwReads reads follow each write.
	rwReads = 4
	// rwWarmPairs insert/delete round pairs run during set-up.
	rwWarmPairs = 2
)

type rwWorld struct {
	eng  *engine.Engine
	spec datagen.Spec
	// keys holds Y's b values in the seed's order; round pair p reads
	// keys[p mod len].
	keys  []int64
	start int
	// want maps a key to its JSON result without and with the marker row.
	want map[int64][2][]byte
	// lastRead is the result of the latest read and lastKey its key.
	lastRead []byte
	lastKey  int64
}

func rwSpec(seed int64, small bool) datagen.Spec {
	if small {
		return datagen.Spec{NX: 16, NY: 600, NZ: 16, Keys: 60, DanglingFrac: 0.25, SetAttrCard: 3, Seed: seed}
	}
	return datagen.Spec{NX: 16, NY: 6000, NZ: 16, Keys: 600, DanglingFrac: 0.25, SetAttrCard: 3, Seed: seed}
}

func setupReadWrite(seed int64, small bool, st *setupTimes) (world, error) {
	spec := rwSpec(seed, small)
	t := time.Now()
	cat, db := datagen.XYZ(spec)
	st.datagen = time.Since(t)
	eng := engine.New(cat, db)
	t = time.Now()
	if err := eng.CreateIndex("Y", "b"); err != nil {
		return nil, err
	}
	st.index = time.Since(t)
	t = time.Now()
	eng.Analyze()
	st.analyze = time.Since(t)

	tab, ok := db.Table("Y")
	if !ok {
		return nil, errors.New("no table Y")
	}
	w := &rwWorld{eng: eng, spec: spec, start: tab.Len()}
	for _, row := range tab.Rows() {
		w.keys = append(w.keys, row.MustGet("b").AsInt())
	}
	slices.Sort(w.keys)
	w.keys = slices.Compact(w.keys)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.keys), func(i, j int) { w.keys[i], w.keys[j] = w.keys[j], w.keys[i] })

	t = time.Now()
	for seq := 0; seq < w.warmOps(); seq++ {
		if _, err := w.op(0, seq, nil); err != nil {
			return nil, err
		}
	}
	st.warmup = time.Since(t)
	return w, nil
}

func (w *rwWorld) clients() int { return 1 }

// unit is one insert round and one delete round.
func (w *rwWorld) unit() int    { return 2 * (1 + rwReads) }
func (w *rwWorld) warmOps() int { return rwWarmPairs * w.unit() }

// step decodes op seq: the round pair's key, whether the round inserts,
// and whether the op is the round's write.
func (w *rwWorld) step(seq int) (key int64, insert, write bool) {
	round := seq / (1 + rwReads)
	return w.keys[(round/2)%len(w.keys)], round%2 == 0, seq%(1+rwReads) == 0
}

func (w *rwWorld) describe(c, seq int) string {
	k, insert, write := w.step(seq)
	switch {
	case write && insert:
		return fmt.Sprintf("insert Y b=%d", k)
	case write:
		return fmt.Sprintf("delete Y b=%d", k)
	}
	return fmt.Sprintf(rwQuery, k)
}

func (w *rwWorld) op(c, seq int, tr *tracer) (bool, error) {
	k, insert, write := w.step(seq)
	if write {
		if insert {
			tr.begin()
			added, err := w.eng.Insert("Y", fmt.Sprintf("(a = 0, b = %d, c = {0}, d = %d)", k, rwMarker))
			tr.end("storage.insert")
			if err == nil && !added {
				err = errors.New("insert: the marker row was already present")
			}
			return true, err
		}
		tr.begin()
		n, err := w.eng.Delete("Y", "y", fmt.Sprintf("y.d = %d", rwMarker))
		tr.end("storage.delete")
		if err == nil && n != 1 {
			err = fmt.Errorf("delete: removed %d rows, want 1", n)
		}
		return true, err
	}
	b, err := query(w.eng, fmt.Sprintf(rwQuery, k), tr)
	if err != nil {
		return false, err
	}
	w.lastRead, w.lastKey = b, k
	if w.want != nil {
		want := w.want[k][0]
		if insert {
			want = w.want[k][1]
		}
		if !bytes.Equal(b, want) {
			return false, fmt.Errorf("key %d: result differs from a filter over the table's rows", k)
		}
	}
	return false, nil
}

// oracle filters the table's rows by key, with and without the marker row.
func (w *rwWorld) oracle() error {
	tab, ok := w.eng.DB().Table("Y")
	if !ok {
		return errors.New("no table Y")
	}
	byKey := map[int64][]value.Value{}
	for _, row := range tab.Rows() {
		k := row.MustGet("b").AsInt()
		byKey[k] = append(byKey[k], row)
	}
	w.want = make(map[int64][2][]byte, len(byKey))
	for k, rows := range byKey {
		base, err := json.Marshal(value.SetOf(rows...))
		if err != nil {
			return err
		}
		with, err := json.Marshal(value.SetOf(append(rows, datagen.YRow(0, k, 0, rwMarker))...))
		if err != nil {
			return err
		}
		w.want[k] = [2][]byte{base, with}
	}
	return nil
}

// check verifies that Y is back at its start size and that the final read
// equals a fresh evaluation with an empty plan cache.
func (w *rwWorld) check() error {
	tab, ok := w.eng.DB().Table("Y")
	if !ok {
		return errors.New("no table Y")
	}
	if tab.Len() != w.start {
		return fmt.Errorf("|Y| = %d at the end, %d at the start", tab.Len(), w.start)
	}
	w.eng.ClearPlanCache()
	fresh, err := query(w.eng, fmt.Sprintf(rwQuery, w.lastKey), nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(fresh, w.lastRead) {
		return fmt.Errorf("key %d: final read differs from a fresh evaluation", w.lastKey)
	}
	return nil
}

func (w *rwWorld) engine() *engine.Engine { return w.eng }

func (w *rwWorld) sizes() map[string]int {
	return map[string]int{"Y": w.start, "keys": len(w.keys)}
}

func (w *rwWorld) close() error { return nil }
