package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"porcupine/internal/bfv"
	"porcupine/internal/wire"
)

// Front is the HTTP front-end over one loaded bundle and its
// scheduler — the network face of a serving process.
//
// Endpoints:
//
//	GET  /healthz  liveness + kernel identity
//	GET  /plan     plan shape, rotation set, parameter fingerprint
//	GET  /stats    scheduler statistics (latency, queue depth, batches)
//	GET  /selftest runs the bundle's embedded sample and reports
//	               whether the output is bit-identical to the
//	               exporter's (the cross-process differential check)
//	POST /run      one wire-encoded Request; responds with the
//	               wire-encoded output ciphertext
type Front struct {
	sched   *Scheduler
	bundle  *wire.Bundle
	mux     *http.ServeMux
	maxBody int // largest request the plan can carry (wire.RequestSizeBound)
}

// NewFront builds the HTTP front-end for a bundle served by sched.
func NewFront(sched *Scheduler, bundle *wire.Bundle) *Front {
	f := &Front{sched: sched, bundle: bundle, mux: http.NewServeMux()}
	f.maxBody = wire.RequestSizeBound(bundle.Params, bundle.Plan.NumCtInputs, bundle.Plan.NumPtInputs)
	f.mux.HandleFunc("GET /healthz", f.healthz)
	f.mux.HandleFunc("GET /plan", f.plan)
	f.mux.HandleFunc("GET /stats", f.stats)
	f.mux.HandleFunc("GET /selftest", f.selftest)
	f.mux.HandleFunc("POST /run", f.run)
	return f
}

func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (f *Front) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":     true,
		"kernel": f.bundle.Name,
		"preset": f.bundle.Preset,
	})
}

func (f *Front) plan(w http.ResponseWriter, r *http.Request) {
	p := f.bundle.Plan
	writeJSON(w, http.StatusOK, map[string]any{
		"kernel":      f.bundle.Name,
		"preset":      f.bundle.Preset,
		"fingerprint": f.bundle.Params.FingerprintHex(),
		"n":           p.N,
		"vec_len":     p.VecLen,
		"ct_inputs":   p.NumCtInputs,
		"pt_inputs":   p.NumPtInputs,
		"steps":       p.InstructionCount(),
		"registers":   p.NumRegs,
		"constants":   len(p.Consts),
		"rotations":   p.Rotations,
	})
}

func (f *Front) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.sched.Stats())
}

func (f *Front) selftest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	identical, err := SelfTest(f.sched, f.bundle)
	answerSelfTest(w, map[string]any{}, start, identical, err, f.bundle.Sample == nil)
}

// answerSelfTest writes a self-test result into body and answers: 404
// for an error when there is nothing to test (notFound), 500 for any
// other error or a non-bit-identical output — the artifact does not
// reproduce the exporter's execution, which breaks serving — else 200.
func answerSelfTest(w http.ResponseWriter, body map[string]any, start time.Time, identical bool, err error, notFound bool) {
	status := http.StatusOK
	switch {
	case err != nil && notFound:
		status = http.StatusNotFound
	case err != nil || !identical:
		status = http.StatusInternalServerError
	}
	body["ok"] = err == nil && identical
	if err != nil {
		body["error"] = err.Error()
	} else {
		body["bit_identical"] = identical
		body["latency_ms"] = float64(time.Since(start).Microseconds()) / 1000.0
	}
	writeJSON(w, status, body)
}

func (f *Front) run(w http.ResponseWriter, r *http.Request) {
	serveRun(w, r, f.bundle.Params, f.maxBody, func(req *wire.Request) Result {
		return f.sched.Do(Request{Plan: f.bundle.Plan, CtIn: req.CtIn, PtIn: req.PtIn})
	})
}

// serveRun is both fronts' run endpoint: read and decode the body,
// execute it through do, answer with the encoded output. The decoded
// inputs go back to the ring pool once the run has ended, the output
// once it is encoded.
func serveRun(w http.ResponseWriter, r *http.Request, params *bfv.Parameters, limit int, do func(*wire.Request) Result) {
	body, ok := readBody(w, r, limit)
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
	res := do(req)
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
