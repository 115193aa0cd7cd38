package vmpi

import (
	"reflect"
	"strings"
	"testing"

	"columbia/internal/fault"
	"columbia/internal/machine"
	"columbia/internal/netmodel"
	"columbia/internal/noise"
	"columbia/internal/pinning"
)

// fingerprintMutators changes each Config field to a value that must
// produce a different simulation result. TestFingerprintCoversEveryField
// walks the struct by reflection, so adding a field to Config without
// registering a mutator here fails the test — and the mutator in turn
// fails unless Fingerprint folds the new field in. Together with the
// fingerprintcover analyzer this closes the cache-aliasing hole from both
// ends: statically (the field must be read) and behaviorally (reading it
// must change the key).
var fingerprintMutators = map[string]func(*Config){
	"Cluster":       func(c *Config) { c.Cluster = machine.NewBX2bQuad() },
	"Net":           func(c *Config) { c.Net = &netmodel.Model{C: c.Cluster, MPT: machine.MPT111r} },
	"Procs":         func(c *Config) { c.Procs = 8 },
	"Threads":       func(c *Config) { c.Threads = 2 },
	"Nodes":         func(c *Config) { c.Nodes = 2 },
	"Stride":        func(c *Config) { c.Stride = 2 },
	"Placement":     func(c *Config) { c.Placement = machine.Strided(c.Cluster, c.Procs, 2) },
	"Pin":           func(c *Config) { c.Pin = pinning.None },
	"ComputeFactor": func(c *Config) { c.ComputeFactor = 1.7 },
	"OMP":           func(c *Config) { c.OMP.SerialFraction = 0.25 },
	"RandomPattern": func(c *Config) { c.RandomPattern = true },
	"Faults":        func(c *Config) { c.Faults = fault.New().SlowNode(0, 2) },
	"Noise":         func(c *Config) { c.Noise = noise.New().WithUniform(0.1).WithSeed(7) },
	"Sanitize":      func(c *Config) { c.Sanitize = true },
}

func baseFingerprintConfig() Config {
	return Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: 4, Threads: 1}
}

// TestFingerprintCoversEveryField mutates each Config field in turn and
// requires the fingerprint to move.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := baseFingerprintConfig().Fingerprint()
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		mutate, ok := fingerprintMutators[name]
		if !ok {
			t.Errorf("Config.%s has no fingerprint mutator; register one here and make Fingerprint cover the field", name)
			continue
		}
		cfg := baseFingerprintConfig()
		mutate(&cfg)
		if got := cfg.Fingerprint(); got == base {
			t.Errorf("mutating Config.%s did not change Fingerprint():\n%s", name, got)
		}
	}
	for name := range fingerprintMutators {
		if _, ok := ct.FieldByName(name); !ok {
			t.Errorf("fingerprintMutators has entry %q for a field Config no longer declares", name)
		}
	}
}

// TestFingerprintStableForEqualConfigs: independently built but equal
// configurations must share a cache entry.
func TestFingerprintStableForEqualConfigs(t *testing.T) {
	a := baseFingerprintConfig().Fingerprint()
	b := baseFingerprintConfig().Fingerprint()
	if a != b {
		t.Errorf("equal configs fingerprint differently:\n%s\n%s", a, b)
	}
}

// TestFingerprintSanitizeIff: the fingerprint changes iff the sanitizer
// toggle changes — sanitized and unsanitized runs must never alias a cache
// entry, while unsanitized fingerprints stay byte-identical to releases
// that predate the toggle (no "commsan" component at all).
func TestFingerprintSanitizeIff(t *testing.T) {
	off := baseFingerprintConfig()
	on := baseFingerprintConfig()
	on.Sanitize = true
	offFP, onFP := off.Fingerprint(), on.Fingerprint()
	if offFP == onFP {
		t.Errorf("Sanitize toggle does not change the fingerprint:\n%s", offFP)
	}
	if strings.Contains(offFP, "commsan") {
		t.Errorf("unsanitized fingerprint mentions commsan (breaks historical cache keys):\n%s", offFP)
	}
	if !strings.Contains(onFP, "commsan=1") {
		t.Errorf("sanitized fingerprint missing commsan component:\n%s", onFP)
	}
	on2 := baseFingerprintConfig()
	on2.Sanitize = true
	if on2.Fingerprint() != onFP {
		t.Errorf("equal sanitized configs fingerprint differently")
	}
}

// TestFingerprintNoiseIff: the fingerprint mentions noise iff a non-empty
// spec is attached — noiseless fingerprints stay byte-identical to
// releases that predate Config.Noise — and each ensemble replica of one
// seed keys its own cache entry while equal (seed, replica) pairs collide.
func TestFingerprintNoiseIff(t *testing.T) {
	silent := baseFingerprintConfig()
	noisy := baseFingerprintConfig()
	noisy.Noise = noise.New().WithExp(0.05).WithSeed(3)
	silentFP, noisyFP := silent.Fingerprint(), noisy.Fingerprint()
	if strings.Contains(silentFP, "noise") {
		t.Errorf("noiseless fingerprint mentions noise (breaks historical cache keys):\n%s", silentFP)
	}
	if noisyFP == silentFP {
		t.Errorf("noise spec does not change the fingerprint:\n%s", noisyFP)
	}
	if !strings.Contains(noisyFP, "noise=jitter=exp:0.05,seed=3") {
		t.Errorf("noisy fingerprint missing canonical noise component:\n%s", noisyFP)
	}
	// Replicas of one seed are distinct points; equal replicas collide.
	r1, r2 := baseFingerprintConfig(), baseFingerprintConfig()
	r1.Noise = noisy.Noise.WithReplica(1)
	r2.Noise = noisy.Noise.WithReplica(2)
	if r1.Fingerprint() == r2.Fingerprint() {
		t.Errorf("replicas 1 and 2 share a fingerprint:\n%s", r1.Fingerprint())
	}
	r1b := baseFingerprintConfig()
	r1b.Noise = noisy.Noise.WithReplica(1)
	if r1b.Fingerprint() != r1.Fingerprint() {
		t.Errorf("equal (seed, replica) configs fingerprint differently")
	}
	// An empty-but-non-nil spec is silence: no component, same cache entry.
	blank := baseFingerprintConfig()
	blank.Noise = noise.New()
	if blank.Fingerprint() != silentFP {
		t.Errorf("empty noise spec changed the fingerprint:\n%s", blank.Fingerprint())
	}
}
