package core

import (
	"context"
	"strings"

	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// The sweep scheduler and the engine's scratch recycling meet here: every
// pool gets one vmpi.Arena per worker slot, installed into the context each
// leaf attempt runs under, so the engines a leaf starts (vmpi.RunCtx) draw
// their rank records, mailboxes and slabs from the slot's private arena.
// An arena holds one rank count's working set, and the pool's rank-count
// affine slot scheduling keeps handing each slot leaves of one count, so
// its scratch stays shaped for that scale instead of being rebuilt on every
// leaf — which is what makes `columbia all -j N` scale (and on a single
// CPU still edge out -j 1; see DESIGN.md).

// workerArena backs the points a worker process serves (ExecutePoint). A
// worker serves one point at a time, so one arena is enough; a concurrent
// caller falls back to the process-wide scratch pool.
var workerArena = vmpi.NewArena()

func init() {
	sweep.RegisterWorkerContext(func(workers int) sweep.WorkerContext {
		arenas := make([]*vmpi.Arena, workers)
		for i := range arenas {
			arenas[i] = vmpi.NewArena()
		}
		return func(slot int, ctx context.Context) context.Context {
			return vmpi.WithArena(ctx, arenas[slot])
		}
	})
	// Affinity classes group leaves by rank count, not workload family: a
	// simulation's engine working set — which (source, tag) mailboxes its
	// collectives create, how many rank records it touches — is determined
	// by how many ranks it runs, and is largely shared between different
	// workloads at the same scale. Keying affinity on the fingerprint's
	// |p=N| field sends every 2048-rank leaf to one slot and every 64-rank
	// leaf to another, so each slot's arena keeps serving its own scale
	// instead of being rebuilt on every switch.
	sweep.RegisterAffinity(func(key string) string {
		if i := strings.Index(key, "|p="); i >= 0 {
			j := i + 1
			for j < len(key) && key[j] != '|' {
				j++
			}
			return key[i:j]
		}
		return ""
	})
}
