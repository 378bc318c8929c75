package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"porcupine/internal/wire"
)

// RegistryFront is the HTTP front-end over one loaded registry — a
// single serving process exposing every kernel of the manifest, one
// kernel included.
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

// selftest answers 404 for a kernel the catalog does not host, 500 for
// any other error or a non-bit-identical output — the artifact does not reproduce the exporter's execution,
// which breaks serving — else 200.
func (f *RegistryFront) selftest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("kernel")
	start := time.Now()
	identical, err := f.cat.SelfTest(name)
	status := http.StatusOK
	switch {
	case err != nil && f.cat.Entry(name) == nil:
		status = http.StatusNotFound
	case err != nil || !identical:
		status = http.StatusInternalServerError
	}
	body := map[string]any{"kernel": name, "ok": err == nil && identical}
	if err != nil {
		body["error"] = err.Error()
	} else {
		body["bit_identical"] = identical
		body["latency_ms"] = float64(time.Since(start).Microseconds()) / 1000.0
	}
	writeJSON(w, status, body)
}

// run reads and decodes the body, executes it on the named kernel,
// and answers with the encoded output. The decoded inputs go back to
// the ring pool once the run has ended, the output once it is encoded.
func (f *RegistryFront) run(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("kernel")
	if f.cat.Entry(name) == nil {
		http.Error(w, fmt.Sprintf("unknown kernel %q", name), http.StatusNotFound)
		return
	}
	params := f.cat.Ctx.Params
	body, ok := readBody(w, r, f.maxBody)
	if !ok {
		return
	}
	req, err := wire.DecodeRequest(params, body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, wire.ErrFingerprint) {
			// The client encrypted under different parameters; its
			// request can never run here.
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	res := f.cat.Do(name, req.CtIn, req.PtIn)
	for _, ct := range req.CtIn {
		params.RecycleCiphertext(ct)
	}
	if res.Err != nil {
		status := http.StatusInternalServerError
		if errors.Is(res.Err, ErrClosed) {
			status = http.StatusServiceUnavailable
		} else {
			// Shape errors (wrong input counts) are the client's fault.
			status = http.StatusBadRequest
		}
		http.Error(w, res.Err.Error(), status)
		return
	}
	out, err := wire.EncodeResponse(params, res.Out)
	params.RecycleCiphertext(res.Out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Porcupine-Latency", res.Latency.String())
	if res.Lanes >= 2 {
		w.Header().Set("X-Porcupine-Lanes", fmt.Sprint(res.Lanes))
	}
	w.Write(out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// readBody reads a body of at most limit bytes into one buffer sized
// from Content-Length. A longer declared length is a 413 before any
// read, an undeclared one overrunning limit a 413 too, a body shorter
// than declared a 400; on refusal it answers and reports false.
func readBody(w http.ResponseWriter, r *http.Request, limit int) ([]byte, bool) {
	if r.ContentLength > int64(limit) {
		http.Error(w, fmt.Sprintf("request of %d bytes exceeds the %d bytes the served plans can carry", r.ContentLength, limit), http.StatusRequestEntityTooLarge)
		return nil, false
	}
	src := http.MaxBytesReader(w, r.Body, int64(limit))
	var body []byte
	var err error
	if r.ContentLength >= 0 {
		body = make([]byte, r.ContentLength)
		_, err = io.ReadFull(src, body)
	} else {
		body, err = io.ReadAll(src)
	}
	if err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "reading body: "+err.Error(), status)
		return nil, false
	}
	return body, true
}
