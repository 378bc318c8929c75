package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"porcupine/internal/bfv"
	"porcupine/internal/wire"
)

// unreadable fails the test if the handler reads the body it was
// meant to refuse on its declared length alone.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("handler read a body whose declared length it should have refused")
	return 0, io.EOF
}

// TestRequestBodyBounds drives both fronts' run endpoints with bodies
// at and past the bound the served plans imply (envelope + every
// ciphertext input at full size + every plaintext input a full slot
// row): the largest legitimate request fits exactly, a declared length
// past it is refused with 413 before any byte is read, an undeclared
// one with 413 once it overruns, and a body cut short — below its
// declared length, or a wire object truncated inside a valid length —
// is a 400.
func TestRequestBodyBounds(t *testing.T) {
	b, sched, _ := newFrontFixture(t)
	f := newRegFixture(t)
	data, err := f.reg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := wire.DecodeRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := LoadRegistry(reg, Config{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// A full-size request for the registry's widest plan: every
	// ciphertext evaluated (so unseeded) and every plaintext a full row.
	widest, bound := "", 0
	for _, name := range cat.Kernels() {
		p := cat.Entry(name).Plan
		if n := wire.RequestSizeBound(reg.Params, p.NumCtInputs, p.NumPtInputs); n > bound {
			widest, bound = name, n
		}
	}
	e := cat.Entry(widest)
	full := &wire.Request{}
	for range e.Plan.NumCtInputs {
		full.CtIn = append(full.CtIn, e.Expected)
	}
	for range e.Plan.NumPtInputs {
		full.PtIn = append(full.PtIn, make([]uint64, reg.Params.SlotCount()))
	}
	fullBody, err := wire.EncodeRequest(reg.Params, full)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := wire.EncodeRequest(reg.Params, e.Sample)
	if err != nil {
		t.Fatal(err)
	}
	bundleFull, err := wire.EncodeRequest(b.Params, &wire.Request{CtIn: []*bfv.Ciphertext{b.Expected}})
	if err != nil {
		t.Fatal(err)
	}
	bundleSample, err := wire.EncodeRequest(b.Params, b.Sample)
	if err != nil {
		t.Fatal(err)
	}

	fronts := []struct {
		name    string
		handler http.Handler
		path    string
		full    []byte // the largest legitimate request: exactly the bound
		ok      []byte // a request that runs
	}{
		{"Front", NewFront(sched, b), "/run", bundleFull, bundleSample},
		{"RegistryFront", NewRegistryFront(cat, reg.Preset), "/run/" + widest, fullBody, sample},
	}
	for _, fr := range fronts {
		t.Run(fr.name, func(t *testing.T) {
			post := func(body io.Reader, length int64) *httptest.ResponseRecorder {
				req := httptest.NewRequest(http.MethodPost, fr.path, body)
				req.ContentLength = length
				rec := httptest.NewRecorder()
				fr.handler.ServeHTTP(rec, req)
				return rec
			}
			limit := len(fr.full)
			if rec := post(bytes.NewReader(fr.ok), int64(len(fr.ok))); rec.Code != http.StatusOK {
				t.Fatalf("valid request: status %d: %s", rec.Code, rec.Body)
			}
			if rec := post(bytes.NewReader(fr.full), int64(limit)); rec.Code == http.StatusRequestEntityTooLarge {
				t.Fatalf("largest legitimate request (%d bytes) refused as too large", limit)
			}
			if rec := post(unreadable{t}, int64(limit)+1); rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("declared length past the bound: status %d, want 413", rec.Code)
			}
			if rec := post(strings.NewReader(strings.Repeat("x", limit+1)), -1); rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("undeclared length past the bound: status %d, want 413", rec.Code)
			}
			if rec := post(bytes.NewReader(fr.ok[:len(fr.ok)/2]), int64(len(fr.ok))); rec.Code != http.StatusBadRequest {
				t.Errorf("body shorter than its declared length: status %d, want 400", rec.Code)
			}
			cut := fr.ok[:len(fr.ok)-10]
			if rec := post(bytes.NewReader(cut), int64(len(cut))); rec.Code != http.StatusBadRequest {
				t.Errorf("truncated wire object: status %d, want 400", rec.Code)
			}
		})
	}
	if b2 := wire.RequestSizeBound(b.Params, 1, 0); b2 != len(bundleFull) {
		t.Errorf("bundle plan bound %d bytes, a full-size request is %d", b2, len(bundleFull))
	}
	if bound != len(fullBody) {
		t.Errorf("registry bound %d bytes, its widest full-size request is %d", bound, len(fullBody))
	}
}
