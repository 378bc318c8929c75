// Registry: the multi-kernel serving artifact. One envelope carries a
// manifest of named plans compiled for ONE parameter set,
// with a single shared key-material section (relinearization key plus
// the union Galois set every plan — and every mux lane geometry —
// needs), so a serving process hosts the whole kernel suite from one
// shared backend context instead of one process per bundle.

package wire

import (
	"fmt"

	"porcupine/internal/bfv"
	"porcupine/internal/plan"
)

// RegistryEntry is one named kernel of a registry manifest.
type RegistryEntry struct {
	Name string
	Plan *plan.ExecutionPlan

	// MuxStride/MuxLanes are the slot-multiplexing lane geometry the
	// exporter proved legal for this plan (see plan.MuxParams), or 0/0
	// for a mux-ineligible kernel (full-width vector, rotation reach
	// crossing lane boundaries, degree-2 output). Decode re-validates
	// the geometry against the plan's reach analysis and the shared
	// Galois set — a manifest is never trusted to be legal.
	MuxStride int
	MuxLanes  int

	// Sample/Expected form the per-kernel embedded differential check,
	// exactly like Bundle's: running Plan on Sample must reproduce
	// Expected bit for bit. Both may be nil.
	Sample   *Request
	Expected *bfv.Ciphertext
}

// Registry is the exported multi-kernel serving artifact.
type Registry struct {
	Preset string // parameter preset name (reporting; the binding truth is the fingerprint)

	Params  *bfv.Parameters
	Entries []RegistryEntry

	Relin  *bfv.RelinearizationKey
	Galois *bfv.GaloisKeys
}

// Entry returns the named entry, or nil.
func (reg *Registry) Entry(name string) *RegistryEntry {
	for i := range reg.Entries {
		if reg.Entries[i].Name == name {
			return &reg.Entries[i]
		}
	}
	return nil
}

// Kernels returns the manifest's kernel names in manifest order.
func (reg *Registry) Kernels() []string {
	names := make([]string, len(reg.Entries))
	for i := range reg.Entries {
		names[i] = reg.Entries[i].Name
	}
	return names
}

// Encode serializes the registry. Params, keys and at least one entry
// are required; every entry needs a name and a plan, and each entry's
// Sample/Expected must come together.
func (reg *Registry) Encode() ([]byte, error) {
	if reg.Params == nil || reg.Relin == nil || reg.Galois == nil {
		return nil, fmt.Errorf("wire: registry needs params, relin and galois keys")
	}
	if len(reg.Entries) == 0 {
		return nil, fmt.Errorf("wire: registry carries no kernels")
	}
	return encode(reg.Params, tagRegistry, func(w *writer) error {
		w.fingerprint()
		w.str(reg.Preset)
		w.obj(reg.Params)
		w.u32(uint32(len(reg.Entries)))
		for i := range reg.Entries {
			e := &reg.Entries[i]
			if e.Name == "" || e.Plan == nil {
				return fmt.Errorf("wire: registry entry %d needs a name and a plan", i)
			}
			if (e.Sample == nil) != (e.Expected == nil) {
				return fmt.Errorf("wire: registry entry %q: self-test sample and expected output must come together", e.Name)
			}
			w.str(e.Name)
			if err := encodePlan(w, e.Plan); err != nil {
				return err
			}
			w.u32(uint32(e.MuxStride))
			w.u32(uint32(e.MuxLanes))
			encodeSample(w, e.Sample, e.Expected)
		}
		w.obj(reg.Relin)
		w.obj(reg.Galois)
		return nil
	})
}

// DecodeRegistry decodes and fully validates a registry: envelope
// integrity, parameter fingerprint, per-plan well-formedness
// (plan.Validate via decodePlan), manifest sanity (non-empty unique
// names), mux lane-geometry legality re-derived from each plan's reach
// analysis, Galois coverage of every plan rotation AND every mux
// pack/demux rotation, and per-entry self-test shape.
func DecodeRegistry(data []byte) (*Registry, error) {
	r, err := open(data, tagRegistry, nil)
	if err != nil {
		return nil, err
	}
	fp, err := r.fingerprint()
	if err != nil {
		return nil, err
	}
	reg := &Registry{Preset: r.str()}
	if reg.Params, err = r.params(fp); err != nil {
		return nil, err
	}
	nEntries := r.count(1)
	if r.err == nil && nEntries == 0 {
		return nil, fmt.Errorf("%w: registry manifest is empty", ErrInvalid)
	}
	seen := make(map[string]bool, nEntries)
	for i := 0; i < nEntries; i++ {
		e := RegistryEntry{Name: r.str()}
		if r.err != nil {
			return nil, r.err
		}
		if e.Name == "" {
			return nil, fmt.Errorf("%w: registry entry %d has an empty name", ErrInvalid, i)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("%w: duplicate registry entry %q", ErrInvalid, e.Name)
		}
		seen[e.Name] = true
		if e.Plan, err = decodePlan(r, reg.Params); err != nil {
			return nil, fmt.Errorf("registry entry %q: %w", e.Name, err)
		}
		e.MuxStride = int(r.u32())
		e.MuxLanes = int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		switch {
		case e.MuxStride == 0 && e.MuxLanes == 0:
			// mux-ineligible kernel: per-request execution only
		case e.MuxStride == 0 || e.MuxLanes == 0:
			return nil, fmt.Errorf("%w: registry entry %q: half-set mux geometry stride=%d lanes=%d", ErrInvalid, e.Name, e.MuxStride, e.MuxLanes)
		default:
			if err := plan.ValidateMux(e.Plan, reg.Params.SlotCount(), e.MuxStride, e.MuxLanes); err != nil {
				return nil, fmt.Errorf("%w: registry entry %q: %v", ErrInvalid, e.Name, err)
			}
		}
		if e.Sample, e.Expected, err = decodeSample(r, reg.Params, e.Plan); err != nil {
			return nil, fmt.Errorf("registry entry %q: %w", e.Name, err)
		}
		reg.Entries = append(reg.Entries, e)
	}
	if reg.Relin, err = section(r, "relinearization key", reg.Params.UnmarshalRelinearizationKey); err != nil {
		return nil, err
	}
	if reg.Galois, err = section(r, "galois keys", reg.Params.UnmarshalGaloisKeys); err != nil {
		return nil, err
	}
	for _, e := range reg.Entries {
		if rot, ok := uncovered(reg.Params, reg.Galois, e.Plan.Rotations); ok {
			return nil, fmt.Errorf("%w: entry %q needs rotation %d but the registry carries no key for it", ErrInvalid, e.Name, rot)
		}
		if e.MuxLanes < 2 {
			continue
		}
		if rot, ok := uncovered(reg.Params, reg.Galois, plan.MuxRotations(e.MuxStride, e.MuxLanes)); ok {
			return nil, fmt.Errorf("%w: entry %q mux geometry needs rotation %d but the registry carries no key for it", ErrInvalid, e.Name, rot)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return reg, nil
}

// WriteFile atomically writes the encoded registry to path.
func (reg *Registry) WriteFile(path string) error { return writeFile(path, reg.Encode) }

// ReadRegistryFile reads and decodes a registry written by WriteFile.
func ReadRegistryFile(path string) (*Registry, error) { return readFile(path, DecodeRegistry) }
