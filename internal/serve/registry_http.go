package serve

import (
	"fmt"
	"net/http"
	"time"

	"porcupine/internal/wire"
)

// RegistryFront is the HTTP front-end over one loaded registry — a
// single serving process exposing every kernel of the manifest.
//
// Endpoints:
//
//	GET  /healthz            liveness + manifest summary
//	GET  /kernels            per-kernel shape, rotations, mux geometry
//	GET  /stats              scheduler statistics incl. per-kernel and
//	                         mux counters
//	GET  /selftest/{kernel}  runs that kernel's embedded sample and
//	                         reports bit-identity with the exporter's
//	                         output (the cross-process differential
//	                         check)
//	POST /run/{kernel}       one wire-encoded Request routed to that
//	                         kernel; responds with the wire-encoded
//	                         output ciphertext
type RegistryFront struct {
	cat     *Catalog
	preset  string
	mux     *http.ServeMux
	maxBody int // largest request any hosted plan can carry (wire.RequestSizeBound)
}

// NewRegistryFront builds the multi-kernel HTTP front-end.
func NewRegistryFront(cat *Catalog, preset string) *RegistryFront {
	f := &RegistryFront{cat: cat, preset: preset, mux: http.NewServeMux()}
	for _, name := range cat.Kernels() {
		p := cat.Entry(name).Plan
		f.maxBody = max(f.maxBody, wire.RequestSizeBound(cat.Ctx.Params, p.NumCtInputs, p.NumPtInputs))
	}
	f.mux.HandleFunc("GET /healthz", f.healthz)
	f.mux.HandleFunc("GET /kernels", f.kernels)
	f.mux.HandleFunc("GET /stats", f.stats)
	f.mux.HandleFunc("GET /selftest/{kernel}", f.selftest)
	f.mux.HandleFunc("POST /run/{kernel}", f.run)
	return f
}

func (f *RegistryFront) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

func (f *RegistryFront) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"preset":  f.preset,
		"kernels": f.cat.Kernels(),
	})
}

func (f *RegistryFront) kernels(w http.ResponseWriter, r *http.Request) {
	list := make([]map[string]any, 0, len(f.cat.Kernels()))
	for _, name := range f.cat.Kernels() {
		e := f.cat.Entry(name)
		p := e.Plan
		k := map[string]any{
			"kernel":    name,
			"n":         p.N,
			"vec_len":   p.VecLen,
			"ct_inputs": p.NumCtInputs,
			"pt_inputs": p.NumPtInputs,
			"steps":     p.InstructionCount(),
			"rotations": p.Rotations,
			"self_test": e.Sample != nil,
			"muxable":   e.Mux != nil,
		}
		if e.Mux != nil {
			k["mux_stride"] = e.Mux.Stride
			k["mux_lanes"] = e.Mux.Lanes
		}
		list = append(list, k)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"preset":      f.preset,
		"fingerprint": f.cat.Ctx.Params.FingerprintHex(),
		"kernels":     list,
	})
}

func (f *RegistryFront) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.cat.Sched.Stats())
}

func (f *RegistryFront) selftest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("kernel")
	start := time.Now()
	identical, err := f.cat.SelfTest(name)
	answerSelfTest(w, map[string]any{"kernel": name}, start, identical, err, f.cat.Entry(name) == nil)
}

func (f *RegistryFront) run(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("kernel")
	e := f.cat.Entry(name)
	if e == nil {
		http.Error(w, fmt.Sprintf("unknown kernel %q", name), http.StatusNotFound)
		return
	}
	serveRun(w, r, f.cat.Ctx.Params, f.maxBody, func(req *wire.Request) Result {
		return f.cat.Do(name, req.CtIn, req.PtIn)
	})
}
