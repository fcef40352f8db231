// Sessions shows the PDQ abstraction outside the DSM context (the paper:
// "PDQ has potential for much wider applicability"): a request-processing
// server in the style of modern dispatch-queue runtimes. A virtualized
// mux hosts one protected queue per tenant; within a tenant, the session
// id is the synchronization key, so a session's requests execute in order
// without locks while different sessions — and different tenants — run in
// parallel on one shared worker pool. A per-tenant sequential handler
// takes consistent snapshots, and tenants cannot interfere with each
// other's ordering or barriers.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sync/atomic"

	"pdq"
	"pdq/internal/sim"
)

const (
	tenants  = 3
	sessions = 32
	requests = 30_000
)

// state is one tenant's session table: one slot per session, protected
// only by PDQ key serialization. Handlers of different sessions run in
// parallel, so each touches only its own session's slots — a Go map
// shared by all sessions would be a concurrent map write.
type state struct {
	events     []int       // session -> processed request count
	lastSeen   []int       // session -> last request sequence (order check)
	misordered atomic.Bool // set by any session that sees a gap
}

func main() {
	mux := pdq.NewMux()
	states := make([]*state, tenants)
	queues := make([]*pdq.Queue, tenants)
	for tid := 0; tid < tenants; tid++ {
		q, err := mux.Queue(fmt.Sprintf("tenant-%d", tid))
		if err != nil {
			log.Fatal(err)
		}
		queues[tid] = q
		states[tid] = &state{events: make([]int, sessions), lastSeen: make([]int, sessions)}
	}
	pool := pdq.ServeMux(context.Background(), mux, runtime.GOMAXPROCS(0))

	rng := sim.NewRand(2026)
	seq := make([][]int, tenants) // per (tenant, session) request counter
	for t := range seq {
		seq[t] = make([]int, sessions)
	}
	snapshots := make([]int, tenants)
	for i := 0; i < requests; i++ {
		tid := rng.Intn(tenants)
		sid := rng.Zipf(sessions, 0.9) // some sessions are hot
		seq[tid][sid]++
		n := seq[tid][sid]
		st := states[tid]
		err := queues[tid].Enqueue(func(any) {
			// In-order, exclusive per session: no locks needed.
			if st.lastSeen[sid] != n-1 {
				st.misordered.Store(true)
			}
			st.lastSeen[sid] = n
			st.events[sid]++
		}, pdq.WithKey(pdq.Key(sid)))
		if err != nil {
			log.Fatal(err)
		}
		if i%10_000 == 9_999 {
			// Tenant-scoped audit: runs in isolation for THIS tenant only;
			// other tenants keep dispatching.
			if err := queues[tid].Enqueue(func(any) {
				total := 0
				for _, c := range st.events {
					total += c
				}
				snapshots[tid] = total
			}, pdq.Sequential()); err != nil {
				log.Fatal(err)
			}
		}
	}
	mux.Close()
	pool.Wait()

	fmt.Printf("%d tenants × %d sessions, %d requests, %d workers\n",
		tenants, sessions, requests, runtime.GOMAXPROCS(0))
	grand := 0
	for tid, st := range states {
		total := 0
		for _, c := range st.events {
			total += c
		}
		grand += total
		fmt.Printf("  tenant %d: %6d processed, in-order=%v, last audit saw %d\n",
			tid, total, !st.misordered.Load(), snapshots[tid])
		if st.misordered.Load() {
			log.Fatal("per-session FIFO violated")
		}
	}
	if grand != requests {
		log.Fatalf("processed %d of %d requests", grand, requests)
	}
	fmt.Printf("mux: %v\n", mux.Stats())
	fmt.Println("OK: per-session ordering and tenant-scoped barriers held")
}
