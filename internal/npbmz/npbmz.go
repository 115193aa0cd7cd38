// Package npbmz implements the multi-zone NAS Parallel Benchmarks BT-MZ
// and SP-MZ (§3.2): the aggregate grid is split into a 2-D array of zones
// solved independently each step and coupled by boundary exchange, which
// exposes coarse-grain parallelism (zones over MPI processes, bin-packed
// for load balance) on top of the fine-grain loop parallelism inside each
// zone (OpenMP threads).
//
// SP-MZ's zones are equal-sized, so load balancing is trivial whenever the
// zone count divides the process count; BT-MZ's zones are uneven (about
// 20x between largest and smallest), so process counts approaching the
// zone count need OpenMP threads to recover balance — exactly the
// behaviour Figs. 9 and 11 examine. The paper introduced classes E
// (4096 zones) and F (16384 zones) to stress Columbia; both are here.
package npbmz

import (
	"fmt"
	"math"
	"sort"

	"columbia/internal/npb"
)

// Params defines one multi-zone class.
type Params struct {
	XZones, YZones int // zones form an XZones x YZones array
	Gx, Gy, Gz     int // aggregate grid dimensions
	Niter          int
}

// Zones returns XZones*YZones.
func (p Params) Zones() int { return p.XZones * p.YZones }

// Classes is the NPB-MZ class table, including the paper's new E and F.
var Classes = map[npb.Class]Params{
	npb.ClassS: {2, 2, 24, 24, 6, 60},
	npb.ClassW: {4, 4, 64, 64, 8, 200},
	npb.ClassA: {4, 4, 128, 128, 16, 200},
	npb.ClassB: {8, 8, 304, 208, 17, 200},
	npb.ClassC: {16, 16, 480, 320, 28, 200},
	npb.ClassD: {32, 32, 1632, 1216, 34, 250},
	npb.ClassE: {64, 64, 4224, 3456, 92, 250},
	npb.ClassF: {128, 128, 12032, 8960, 250, 250},
}

// Zone describes one zone's grid extent.
type Zone struct {
	ID         int
	Nx, Ny, Nz int
}

// Points returns the zone's grid point count.
func (z Zone) Points() float64 { return float64(z.Nx) * float64(z.Ny) * float64(z.Nz) }

// btUnevenRatio is the target largest/smallest zone-size ratio of BT-MZ.
const btUnevenRatio = 20.0

// Decompose splits the aggregate grid into zones. For SP-MZ (uneven ==
// false) the split is even in both horizontal directions. For BT-MZ
// (uneven == true) the x-widths follow a geometric progression whose
// largest/smallest zone sizes differ by ~20x, as in the NPB-MZ spec.
func Decompose(p Params, uneven bool) []Zone {
	widths := func(total, parts int, ratio float64) []int {
		w := make([]int, parts)
		if !uneven || parts == 1 {
			for i := range w {
				w[i] = total / parts
				if i < total%parts {
					w[i]++
				}
			}
			return w
		}
		// Geometric: w_i ∝ r^i with r^(parts-1) = ratio.
		r := math.Pow(ratio, 1/float64(parts-1))
		sum := 0.0
		raw := make([]float64, parts)
		for i := range raw {
			raw[i] = math.Pow(r, float64(i))
			sum += raw[i]
		}
		used := 0
		for i := range w {
			w[i] = int(float64(total) * raw[i] / sum)
			if w[i] < 2 {
				w[i] = 2
			}
			used += w[i]
		}
		// Fix rounding drift on the largest zone.
		w[parts-1] += total - used
		if w[parts-1] < 2 {
			w[parts-1] = 2
		}
		return w
	}
	// BT-MZ applies the uneven split in x only (√20 per direction would
	// also be valid; the x-only form matches the reference's strong
	// x-direction skew). The ratio is applied per direction so the
	// largest/smallest zone volume ratio lands near btUnevenRatio.
	xw := widths(p.Gx, p.XZones, btUnevenRatio)
	yw := widths(p.Gy, p.YZones, 1)
	zones := make([]Zone, 0, p.Zones())
	id := 0
	for yi := 0; yi < p.YZones; yi++ {
		for xi := 0; xi < p.XZones; xi++ {
			zones = append(zones, Zone{ID: id, Nx: xw[xi], Ny: yw[yi], Nz: p.Gz})
			id++
		}
	}
	return zones
}

// Balance assigns zones to procs with the NPB-MZ load balancer: zones in
// decreasing size order onto the least-loaded process, ties to the lowest
// process index. It returns the assignment (zone -> proc) and per-proc
// point loads. The least-loaded process comes off a min-heap ordered by
// (load, index), so a class-E balance costs O(Z log P) instead of a scan
// of every process per zone.
func Balance(zones []Zone, procs int) (assign []int, loads []float64) {
	if procs < 1 {
		panic("npbmz: need at least one process")
	}
	points := make([]float64, len(zones))
	order := make([]int, len(zones))
	for i, z := range zones {
		points[i] = z.Points()
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := points[order[a]], points[order[b]]
		if pa != pb {
			return pa > pb
		}
		return order[a] < order[b]
	})
	assign = make([]int, len(zones))
	loads = make([]float64, procs)
	// heap holds every proc index; heap[0] is the least loaded, ties to
	// the lowest index — exactly the proc a strict-< linear scan picks.
	heap := make([]int, procs)
	for k := range heap {
		heap[k] = k // all loads are zero, so index order is a valid heap
	}
	less := func(a, b int) bool {
		return loads[a] < loads[b] || (loads[a] == loads[b] && a < b)
	}
	for _, z := range order {
		best := heap[0]
		assign[z] = best
		loads[best] += points[z]
		// The root's load only grew: sift it down.
		for i := 0; ; {
			c := 2*i + 1
			if c >= procs {
				break
			}
			if c+1 < procs && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	return assign, loads
}

// Imbalance returns maxLoad/avgLoad of a Balance result.
func Imbalance(loads []float64) float64 {
	max, sum := 0.0, 0.0
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(loads)))
}

// Neighbors returns the zone indices adjacent to zone id in the zone array
// (west, east, south, north; -1 when on the boundary).
func Neighbors(p Params, id int) [4]int {
	xi := id % p.XZones
	yi := id / p.XZones
	at := func(x, y int) int {
		if x < 0 || x >= p.XZones || y < 0 || y >= p.YZones {
			return -1
		}
		return y*p.XZones + x
	}
	return [4]int{at(xi-1, yi), at(xi+1, yi), at(xi, yi-1), at(xi, yi+1)}
}

// FaceBytes returns the boundary-exchange volume between zone z and its
// neighbour across the given side (0/1 = x faces, 2/3 = y faces): a
// one-cell strip of the face, five variables, 8 bytes.
func FaceBytes(z Zone, side int) float64 {
	if side < 2 {
		return float64(z.Ny) * float64(z.Nz) * npb.ZoneComponents * 8
	}
	return float64(z.Nx) * float64(z.Nz) * npb.ZoneComponents * 8
}

func (p Params) String() string {
	return fmt.Sprintf("%dx%d zones, %dx%dx%d aggregate", p.XZones, p.YZones, p.Gx, p.Gy, p.Gz)
}
