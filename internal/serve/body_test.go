package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"porcupine/internal/wire"
)

// unreadable fails the test if the handler reads the body it was
// meant to refuse on its declared length alone.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("handler read a body whose declared length it should have refused")
	return 0, io.EOF
}

// TestRequestBodyBounds drives the front's run endpoint with bodies
// at and past the bound the served plans imply (envelope + every
// ciphertext input at full size + every plaintext input a full slot
// row): the largest legitimate request fits exactly, a declared length
// past it is refused with 413 before any byte is read, an undeclared
// one with 413 once it overruns, and a body cut short — below its
// declared length, or a wire object truncated inside a valid length —
// is a 400.
func TestRequestBodyBounds(t *testing.T) {
	reg, cat := loadedRegistry(t, Config{Sessions: 1})

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
	handler := NewRegistryFront(cat, reg.Preset)
	t.Run("RegistryFront", func(t *testing.T) {
		send := func(body io.Reader, length int64) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/run/"+widest, body)
			req.ContentLength = length
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			return rec
		}
		limit := len(fullBody)
		if rec := send(bytes.NewReader(sample), int64(len(sample))); rec.Code != http.StatusOK {
			t.Fatalf("valid request: status %d: %s", rec.Code, rec.Body)
		}
		if rec := send(bytes.NewReader(fullBody), int64(limit)); rec.Code == http.StatusRequestEntityTooLarge {
			t.Fatalf("largest legitimate request (%d bytes) refused as too large", limit)
		}
		if rec := send(unreadable{t}, int64(limit)+1); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("declared length past the bound: status %d, want 413", rec.Code)
		}
		if rec := send(strings.NewReader(strings.Repeat("x", limit+1)), -1); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("undeclared length past the bound: status %d, want 413", rec.Code)
		}
		if rec := send(bytes.NewReader(sample[:len(sample)/2]), int64(len(sample))); rec.Code != http.StatusBadRequest {
			t.Errorf("body shorter than its declared length: status %d, want 400", rec.Code)
		}
		cut := sample[:len(sample)-10]
		if rec := send(bytes.NewReader(cut), int64(len(cut))); rec.Code != http.StatusBadRequest {
			t.Errorf("truncated wire object: status %d, want 400", rec.Code)
		}
	})
	if bound != len(fullBody) {
		t.Errorf("registry bound %d bytes, its widest full-size request is %d", bound, len(fullBody))
	}
}
