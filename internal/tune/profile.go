// Package tune calibrates the solver's machine-dependent parameters.
//
// The combing, steady-ant and bit-parallel kernels carry a handful of
// constants — parallel chunk sizes, the 16-bit index route, the hybrid
// recursion cut-over, the precalc base order, tile counts, worker
// fan-out — whose best values depend on the machine: core count, cache
// sizes, and memory bandwidth all move the cross-over points. Calibrate
// micro-benchmarks the parameter grid on the current machine and
// selects per-axis winners; the result is persisted as a versioned JSON
// Profile that cmd/semilocal loads on start-up and threads through
// core.SolveWith as a core.Tuning argument.
//
// Tuning never changes answers — every grid point produces the
// bit-identical semi-local kernel (the grid-sweep differential wall in
// this package pins that) — so a stale, corrupt or foreign profile can
// cost performance but never correctness. Load is correspondingly
// strict (unknown fields, schema mismatches and out-of-range values all
// fail), and LoadOrDefault degrades to the built-in defaults rather
// than guessing, counting the fallback in obs.
package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"semilocal/internal/bitlcs"
	"semilocal/internal/core"
	"semilocal/internal/obs"
)

// SchemaVersion is the profile schema this build reads and writes.
// Loads of any other version fail: a profile's fields only mean what
// the build that wrote them meant, and silently reinterpreting an old
// file as current tuning is how a machine ends up mis-tuned forever.
const SchemaVersion = 1

// Profile is one machine's calibrated parameter set, as persisted.
// The zero value of every tuning field means "use the built-in
// default", so a profile may pin any subset of the knobs.
type Profile struct {
	// Schema is the profile schema version; Load rejects files whose
	// Schema differs from SchemaVersion.
	Schema int `json:"schema"`
	// CreatedAt records when the calibration ran (RFC 3339);
	// informational only.
	CreatedAt string `json:"created_at,omitempty"`
	// GOOS, GOARCH and NumCPU describe the machine that was calibrated.
	// LoadOrDefault checks them against the running host: a platform
	// mismatch (GOOS/GOARCH) rejects the profile — constants measured on
	// another architecture are noise here — while a CPU count change
	// keeps the profile but flags it stale (see Stale), since the
	// sequential axes still transfer. Empty/zero fields are unchecked:
	// hand-written profiles may omit the host block deliberately.
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	NumCPU int    `json:"num_cpu,omitempty"`

	// Core is the calibrated solver tuning threaded through
	// core.SolveWith.
	Core core.Tuning `json:"core"`
	// Workers is the calibrated solve worker count; 0 leaves the
	// caller's configured worker count alone.
	Workers int `json:"workers,omitempty"`
	// BitVersion names the winning bit-parallel LCS implementation
	// ("bit_new_2", "bit_new_3", …); empty keeps the caller's choice.
	BitVersion string `json:"bit_version,omitempty"`
	// BitMinBlocks is the calibrated minimum blocks-per-diagonal worth
	// splitting across workers in bit-parallel scoring; 0 keeps the
	// built-in default.
	BitMinBlocks int `json:"bit_min_blocks,omitempty"`
}

// Default returns the profile that reproduces the untuned build
// exactly: current schema, host metadata, and all-zero tuning.
func Default() *Profile {
	return &Profile{
		Schema: SchemaVersion,
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
}

// Tuning returns the profile's core tuning for threading through
// core.SolveWith. A nil profile yields nil (the untuned path).
func (p *Profile) Tuning() *core.Tuning {
	if p == nil {
		return nil
	}
	return &p.Core
}

// BitVer resolves the profile's bit-parallel version name. The second
// result is false when the profile does not pin a version (empty name
// or nil profile); unknown names cannot occur in a validated profile.
func (p *Profile) BitVer() (bitlcs.Version, bool) {
	if p == nil || p.BitVersion == "" {
		return 0, false
	}
	v, err := parseBitVersion(p.BitVersion)
	if err != nil {
		return 0, false
	}
	return v, true
}

func parseBitVersion(name string) (bitlcs.Version, error) {
	for _, v := range bitlcs.Versions() {
		if v.String() == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown bit-parallel version %q", name)
}

// StalePlatform reports whether the profile was calibrated for a
// different GOOS/GOARCH than the running host. Empty fields are
// unchecked.
func (p *Profile) StalePlatform() error {
	if (p.GOOS != "" && p.GOOS != runtime.GOOS) || (p.GOARCH != "" && p.GOARCH != runtime.GOARCH) {
		return fmt.Errorf("profile calibrated for %s/%s, host is %s/%s",
			p.GOOS, p.GOARCH, runtime.GOOS, runtime.GOARCH)
	}
	return nil
}

// StaleCPU reports whether the profile was calibrated with a different
// CPU count than the running host. A zero field is unchecked.
func (p *Profile) StaleCPU() error {
	if p.NumCPU != 0 && p.NumCPU != runtime.NumCPU() {
		return fmt.Errorf("profile calibrated with %d CPUs, host has %d (consider recalibrating)",
			p.NumCPU, runtime.NumCPU())
	}
	return nil
}

// Stale reports the first host-identity mismatch between the profile
// and the running machine, platform first. Callers that kept a
// CPU-stale profile (see LoadOrDefault) use this for their warning
// banner.
func (p *Profile) Stale() error {
	if err := p.StalePlatform(); err != nil {
		return err
	}
	return p.StaleCPU()
}

// Validate checks the profile's schema version and value ranges. It is
// what makes LoadOrDefault safe against profiles written by other
// builds or by hand: every field the solvers will read is bounded here.
func (p *Profile) Validate() error {
	if p.Schema != SchemaVersion {
		return fmt.Errorf("profile schema %d, this build reads %d", p.Schema, SchemaVersion)
	}
	if p.Core.CombMinChunk < 0 {
		return fmt.Errorf("negative comb_min_chunk %d", p.Core.CombMinChunk)
	}
	if p.Core.Use16Threshold < 0 {
		return fmt.Errorf("negative use16_threshold %d", p.Core.Use16Threshold)
	}
	if p.Core.HybridSwitch < 0 {
		return fmt.Errorf("negative hybrid_switch %d", p.Core.HybridSwitch)
	}
	if p.Core.HybridMaxDepth < 0 {
		return fmt.Errorf("negative hybrid_max_depth %d", p.Core.HybridMaxDepth)
	}
	if p.Core.PrecalcBase < 0 || p.Core.PrecalcBase > core.MaxPrecalcBase {
		return fmt.Errorf("precalc_base %d out of range [0,%d]", p.Core.PrecalcBase, core.MaxPrecalcBase)
	}
	if p.Core.TilesPerWorker < 0 {
		return fmt.Errorf("negative tiles_per_worker %d", p.Core.TilesPerWorker)
	}
	if p.Workers < 0 {
		return fmt.Errorf("negative workers %d", p.Workers)
	}
	if p.BitMinBlocks < 0 {
		return fmt.Errorf("negative bit_min_blocks %d", p.BitMinBlocks)
	}
	if p.BitVersion != "" {
		if _, err := parseBitVersion(p.BitVersion); err != nil {
			return err
		}
	}
	return nil
}

// Save writes the profile to path atomically: marshal to a temporary
// file in the same directory, fsync, then rename over the target. A
// crash mid-save leaves either the old profile or the new one, never a
// torn file — the same discipline internal/store uses for its kernel
// log.
func (p *Profile) Save(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".profile-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads and validates a profile. Decoding is strict: unknown
// fields, trailing data, schema mismatches and out-of-range values all
// fail, so a profile that loads is exactly one this build would have
// written.
func Load(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var p Profile
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("tune: decode %s: %w", path, err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || err.Error() != "EOF" {
		return nil, fmt.Errorf("tune: trailing data after profile in %s", path)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tune: %s: %w", path, err)
	}
	return &p, nil
}

// LoadOrDefault loads the profile at path, falling back to the untuned
// Default on any failure — missing file, torn write, corrupt JSON,
// unknown fields, wrong schema, out-of-range values, or a profile
// calibrated for a different platform (GOOS/GOARCH). The returned
// profile is never nil. Outcomes are counted on rec
// (obs.CounterProfileLoads / obs.CounterProfileFallbacks, plus
// obs.CounterProfileStale for host-identity mismatches) and the
// fallback cause is returned for logging; a non-nil error therefore
// means "running untuned", not "failed".
//
// A CPU count mismatch alone is warn-level: the profile is kept (the
// sequential tuning axes still transfer), the stale counter bumps, and
// the nil error preserves the "non-nil means untuned" contract —
// callers surface the soft warning via Stale.
func LoadOrDefault(path string, rec *obs.Recorder) (*Profile, error) {
	p, err := Load(path)
	if err != nil {
		rec.Add(obs.CounterProfileFallbacks, 1)
		return Default(), err
	}
	if err := p.StalePlatform(); err != nil {
		rec.Add(obs.CounterProfileStale, 1)
		rec.Add(obs.CounterProfileFallbacks, 1)
		return Default(), fmt.Errorf("tune: %s: %w", path, err)
	}
	rec.Add(obs.CounterProfileLoads, 1)
	if p.StaleCPU() != nil {
		rec.Add(obs.CounterProfileStale, 1)
	}
	return p, nil
}
