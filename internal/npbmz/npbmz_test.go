package npbmz

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"columbia/internal/npb"
	"columbia/internal/omp"
	"columbia/internal/par"
)

func TestDecomposeCoversGrid(t *testing.T) {
	for class, p := range Classes {
		for _, uneven := range []bool{false, true} {
			zones := Decompose(p, uneven)
			if len(zones) != p.Zones() {
				t.Fatalf("class %c: %d zones, want %d", class, len(zones), p.Zones())
			}
			// Sum of zone volumes equals the aggregate volume (x and y
			// widths partition Gx and Gy exactly).
			total := 0.0
			for _, z := range zones {
				total += z.Points()
			}
			want := float64(p.Gx) * float64(p.Gy) * float64(p.Gz)
			if math.Abs(total-want) > 1e-6*want {
				t.Errorf("class %c uneven=%v: %.0f points, want %.0f", class, uneven, total, want)
			}
		}
	}
}

func TestBTMZUnevenRatio(t *testing.T) {
	p := Classes[npb.ClassC]
	zones := Decompose(p, true)
	min, max := zones[0].Points(), zones[0].Points()
	for _, z := range zones {
		if z.Points() < min {
			min = z.Points()
		}
		if z.Points() > max {
			max = z.Points()
		}
	}
	ratio := max / min
	if ratio < 10 || ratio > 40 {
		t.Errorf("BT-MZ zone size ratio = %.1f, want ~20", ratio)
	}
	// SP-MZ zones are even (within rounding).
	sp := Decompose(p, false)
	min, max = sp[0].Points(), sp[0].Points()
	for _, z := range sp {
		if z.Points() < min {
			min = z.Points()
		}
		if z.Points() > max {
			max = z.Points()
		}
	}
	if max/min > 1.2 {
		t.Errorf("SP-MZ zones uneven: ratio %.2f", max/min)
	}
}

func TestBalanceProperties(t *testing.T) {
	f := func(seed uint8, pc uint8) bool {
		p := Classes[npb.ClassB]
		zones := Decompose(p, seed%2 == 0)
		procs := 1 + int(pc)%64
		assign, loads := Balance(zones, procs)
		sum := 0.0
		for _, l := range loads {
			sum += l
		}
		totalWant := 0.0
		for _, z := range zones {
			if assign[z.ID] < 0 || assign[z.ID] >= procs {
				return false
			}
			totalWant += z.Points()
		}
		if math.Abs(sum-totalWant) > 1e-6*totalWant {
			return false
		}
		return Imbalance(loads) >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// balanceScan is the linear-scan balancer Balance replaced, kept as its
// oracle: zones in decreasing size order (ties to the lower zone index),
// each onto the first least-loaded process of a strict-< scan.
func balanceScan(zones []Zone, procs int) (assign []int, loads []float64) {
	order := make([]int, len(zones))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := zones[order[a]].Points(), zones[order[b]].Points()
		if pa != pb {
			return pa > pb
		}
		return order[a] < order[b]
	})
	assign = make([]int, len(zones))
	loads = make([]float64, procs)
	for _, z := range order {
		best := 0
		for k := 1; k < procs; k++ {
			if loads[k] < loads[best] {
				best = k
			}
		}
		assign[z] = best
		loads[best] += zones[z].Points()
	}
	return assign, loads
}

// TestBalanceMatchesLinearScan: the heap balancer makes exactly the linear
// scan's choices — same assignment, bit-identical loads — on seeded random
// zone sets whose tiny extents force equal-size zones and tied loads, on
// the real class decompositions, and at procs 1, = zones and > zones.
func TestBalanceMatchesLinearScan(t *testing.T) {
	check := func(name string, zones []Zone, procs int) {
		t.Helper()
		assign, loads := Balance(zones, procs)
		wantAssign, wantLoads := balanceScan(zones, procs)
		if !reflect.DeepEqual(assign, wantAssign) {
			t.Fatalf("%s, %d procs: assign %v, linear scan %v", name, procs, assign, wantAssign)
		}
		for k := range loads {
			if math.Float64bits(loads[k]) != math.Float64bits(wantLoads[k]) {
				t.Fatalf("%s, %d procs: load[%d] = %v, linear scan %v", name, procs, k, loads[k], wantLoads[k])
			}
		}
	}
	rnd := rand.New(rand.NewSource(15))
	for set := 0; set < 200; set++ {
		zones := make([]Zone, 1+rnd.Intn(64))
		for i := range zones {
			zones[i] = Zone{ID: i, Nx: 1 + rnd.Intn(3), Ny: 1 + rnd.Intn(3), Nz: 1 + rnd.Intn(2)}
		}
		name := fmt.Sprintf("random set %d", set)
		for _, procs := range []int{1, len(zones), len(zones) + 1 + rnd.Intn(8), 1 + rnd.Intn(len(zones))} {
			check(name, zones, procs)
		}
	}
	for _, class := range []npb.Class{npb.ClassS, npb.ClassB, npb.ClassC} {
		for _, uneven := range []bool{false, true} {
			zones := Decompose(Classes[class], uneven)
			name := fmt.Sprintf("class %c uneven=%v", class, uneven)
			for _, procs := range []int{1, 3, 16, 17, len(zones), 2 * len(zones)} {
				check(name, zones, procs)
			}
		}
	}
}

func TestThreadsRecoverBalance(t *testing.T) {
	// The paper's point about BT-MZ: when procs approach the zone count,
	// pure-process imbalance grows, and hybrid runs with the same total
	// CPUs but fewer processes balance better (Fig. 11 discussion: ~11%
	// gain for 256x2 vs 512x1).
	p := Classes[npb.ClassE]
	zones := Decompose(p, true)
	_, l512 := Balance(zones, 512)
	_, l256 := Balance(zones, 256)
	if Imbalance(l256) >= Imbalance(l512) {
		t.Errorf("imbalance 256 procs (%.3f) should be below 512 procs (%.3f)",
			Imbalance(l256), Imbalance(l512))
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	p := Classes[npb.ClassC]
	for id := 0; id < p.Zones(); id++ {
		for side, nb := range Neighbors(p, id) {
			if nb < 0 {
				continue
			}
			back := Neighbors(p, nb)[oppositeSide[side]]
			if back != id {
				t.Fatalf("zone %d side %d -> %d, but reverse is %d", id, side, nb, back)
			}
		}
	}
}

func TestMiniMPIMatchesSerial(t *testing.T) {
	p := Params{XZones: 3, YZones: 2, Niter: 3}
	serial := RunMiniSerial(p, 8, 3, 1)
	for _, procs := range []int{2, 3} {
		var got []float64
		par.Run(procs, func(c par.Comm) {
			norms := RunMiniMPI(c, p, 8, 3, 1)
			if c.Rank() == 0 {
				got = norms
			}
		})
		for i := range serial {
			if math.Abs(serial[i]-got[i]) > 1e-12+1e-10*serial[i] {
				t.Errorf("procs=%d zone %d norm %.15g != serial %.15g", procs, i, got[i], serial[i])
			}
		}
	}
}

func TestMiniCouplingChangesResult(t *testing.T) {
	// Coupled zones must differ from independent zones: the exchange is
	// doing something.
	p := Params{XZones: 2, YZones: 1, Niter: 2}
	coupled := RunMiniSerial(p, 8, 4, 1)
	z := npb.NewZone(8)
	team := newTeam1()
	for s := 0; s < 4; s++ {
		z.Step(team)
	}
	if math.Abs(coupled[0]-z.Norm()) < 1e-15 {
		t.Error("coupled zone identical to uncoupled zone; exchange is a no-op")
	}
}

func TestSkeletonInfo(t *testing.T) {
	fn, info := Skeleton("BT-MZ", npb.ClassC, 64)
	if fn == nil || info.FlopsPerStep <= 0 {
		t.Fatal("bad skeleton")
	}
	if info.Imbalance() < 1 {
		t.Errorf("imbalance %v", info.Imbalance())
	}
	if info.MaxRegions < 4 {
		t.Errorf("regions %d", info.MaxRegions)
	}
	// SP-MZ with procs dividing zones balances perfectly.
	_, sp := Skeleton("SP-MZ", npb.ClassC, 64)
	if im := sp.Imbalance(); im > 1.001 {
		t.Errorf("SP-MZ imbalance %v, want ~1 (256 zones over 64 procs)", im)
	}
}

// newTeam1 avoids importing omp in most tests.
func newTeam1() *omp.Team { return omp.NewTeam(1) }
