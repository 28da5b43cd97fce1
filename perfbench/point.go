package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"time"

	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/server"
	"tmdb/internal/value"
)

// point_http: two closed-loop server.Clients send ad-hoc key lookups to an
// in-process server on loopback. Prepared statements take no parameters, so
// a real key lookup sends literal text. Three of every four requests use a
// hot set of keys that fits the plan cache; the fourth uses a tail key that
// does not repeat within the cache's lifetime. The hits time the server,
// the parser and the plan-cache hit path (p50); the tail times the full
// planner (p90). Of the three workloads only this one reads a key space
// larger than the program's own cache.

const (
	pointQuery   = "SELECT x FROM X x WHERE x.b = %d"
	pointClients = 2
	// pointHot hot keys fit the plan cache with room for the tail entries
	// written while each hot key waits for its next turn.
	pointHot = 64
	// pointWarmOps per client touch every hot key and fill the cache.
	pointWarmOps = 512
)

type pointWorld struct {
	eng  *engine.Engine
	spec datagen.Spec
	hot  []int64
	// tail holds each client's own tail keys, used in turn.
	tail [][]int64
	// want is each key's JSON result, filtered from the table's rows.
	want map[int64][]byte

	hs        *http.Server
	served    chan error
	transport *http.Transport
	cl        []*server.Client
}

func pointSpec(seed int64, small bool) datagen.Spec {
	if small {
		return datagen.Spec{NX: 3000, NY: 16, NZ: 16, Keys: 2000, SetAttrCard: 3, Seed: seed}
	}
	return datagen.Spec{NX: 4000, NY: 16, NZ: 16, Keys: 3000, SetAttrCard: 3, Seed: seed}
}

func setupPoint(seed int64, small bool, st *setupTimes) (world, error) {
	spec := pointSpec(seed, small)
	t := time.Now()
	cat, db := datagen.XYZ(spec)
	st.datagen = time.Since(t)
	eng := engine.New(cat, db)
	t = time.Now()
	if err := eng.CreateIndex("X", "b"); err != nil {
		return nil, err
	}
	st.index = time.Since(t)
	t = time.Now()
	eng.Analyze()
	st.analyze = time.Since(t)

	w := &pointWorld{eng: eng, spec: spec}
	keys, err := w.distinctKeys()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	w.hot = keys[:pointHot]
	w.tail = make([][]int64, pointClients)
	for i, k := range keys[pointHot:] {
		w.tail[i%pointClients] = append(w.tail[i%pointClients], k)
	}

	t = time.Now()
	if err := w.start(); err != nil {
		return nil, err
	}
	for c := 0; c < pointClients; c++ {
		for seq := 0; seq < pointWarmOps; seq++ {
			if _, err := w.op(c, seq, nil); err != nil {
				w.close()
				return nil, err
			}
		}
	}
	st.warmup = time.Since(t)
	return w, nil
}

// distinctKeys returns X's b values, sorted.
func (w *pointWorld) distinctKeys() ([]int64, error) {
	tab, ok := w.eng.DB().Table("X")
	if !ok {
		return nil, errors.New("no table X")
	}
	var keys []int64
	for _, row := range tab.Rows() {
		keys = append(keys, row.MustGet("b").AsInt())
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if len(keys) < pointHot+2*pointClients*engine.DefaultPlanCacheCapacity {
		return nil, fmt.Errorf("%d distinct keys are too few for a tail larger than the plan cache", len(keys))
	}
	return keys, nil
}

// start serves the engine on a loopback port and connects the clients.
func (w *pointWorld) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: server.New(w.eng, server.Config{})}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.transport = &http.Transport{MaxIdleConnsPerHost: pointClients}
	hc := &http.Client{Transport: w.transport}
	for c := 0; c < pointClients; c++ {
		w.cl = append(w.cl, server.NewClient("http://"+ln.Addr().String(), hc))
	}
	return nil
}

func (w *pointWorld) clients() int { return pointClients }
func (w *pointWorld) unit() int    { return 1 }
func (w *pointWorld) warmOps() int { return pointWarmOps }

// key is the key of op seq of client c: every fourth op takes the client's
// next tail key, the others cycle through the hot keys, the two clients
// half a cycle apart.
func (w *pointWorld) key(c, seq int) int64 {
	if seq%4 == 3 {
		t := w.tail[c]
		return t[(seq/4)%len(t)]
	}
	n := seq/4*3 + seq%4
	return w.hot[(n+c*pointHot/2)%pointHot]
}

func (w *pointWorld) describe(c, seq int) string { return fmt.Sprintf(pointQuery, w.key(c, seq)) }

func (w *pointWorld) op(c, seq int, tr *tracer) (bool, error) {
	k := w.key(c, seq)
	src := fmt.Sprintf(pointQuery, k)
	if tr != nil {
		// The in-process pass runs first, so it sees the plan-cache miss of
		// a tail key; the round trip that follows hits.
		b, err := tracedQuery(tr, w.eng, src)
		if err != nil {
			return false, err
		}
		if err := w.compare(k, b); err != nil {
			return false, fmt.Errorf("in-process: %w", err)
		}
	}
	tr.begin()
	resp, err := w.cl[c].Query(src, nil)
	i := tr.end("server.roundtrip")
	if err != nil {
		return false, err
	}
	if tr != nil {
		tr.tally.overhead = append(tr.tally.overhead, tr.dur(i)-time.Duration(resp.DurationNs))
	}
	return false, w.compare(k, resp.Result)
}

func (w *pointWorld) compare(k int64, got []byte) error {
	if w.want != nil && !bytes.Equal(got, w.want[k]) {
		return fmt.Errorf("key %d: result differs from a filter over the table's rows", k)
	}
	return nil
}

// oracle filters the table's rows by key.
func (w *pointWorld) oracle() error {
	tab, ok := w.eng.DB().Table("X")
	if !ok {
		return errors.New("no table X")
	}
	byKey := map[int64][]value.Value{}
	for _, row := range tab.Rows() {
		k := row.MustGet("b").AsInt()
		byKey[k] = append(byKey[k], row)
	}
	w.want = make(map[int64][]byte, len(byKey))
	for k, rows := range byKey {
		b, err := json.Marshal(value.SetOf(rows...))
		if err != nil {
			return err
		}
		w.want[k] = b
	}
	return nil
}

func (w *pointWorld) check() error { return nil }

func (w *pointWorld) engine() *engine.Engine { return w.eng }

func (w *pointWorld) sizes() map[string]int {
	tail := 0
	for _, t := range w.tail {
		tail += len(t)
	}
	return map[string]int{"X": w.spec.NX, "hot_keys": len(w.hot), "tail_keys": tail}
}

// close stops the server and waits until it has stopped serving.
func (w *pointWorld) close() error {
	if w.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.transport.CloseIdleConnections()
	w.hs = nil
	return err
}
