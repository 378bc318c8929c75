package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"porcupine/internal/wire"
)

// loadedRegistry encodes the mixed-kernel registry fixture, decodes it
// from its bytes and loads it into a sealed catalog, as a fresh serving
// process would.
func loadedRegistry(t *testing.T, cfg Config) (*wire.Registry, *Catalog) {
	t.Helper()
	data, err := newRegFixture(t).reg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := wire.DecodeRegistry(data)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := LoadRegistry(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cat.Close)
	return reg, cat
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func post(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestFrontEndpoints drives every endpoint of the HTTP front over a
// registry loaded from its bytes: identity and manifest, per-kernel
// self-test and run bit-identity with the exporter, scheduler stats,
// and the refusals — garbage (400), a request pinned to other
// parameters (409), and an unknown kernel on both kernel routes (404).
func TestFrontEndpoints(t *testing.T) {
	reg, cat := loadedRegistry(t, Config{Sessions: 2})
	srv := httptest.NewServer(NewRegistryFront(cat, reg.Preset))
	defer srv.Close()

	if m := getJSON(t, srv.URL+"/healthz", http.StatusOK); m["ok"] != true || m["preset"] != reg.Preset {
		t.Errorf("healthz: %v", m)
	}
	m := getJSON(t, srv.URL+"/kernels", http.StatusOK)
	if m["fingerprint"] != reg.Params.FingerprintHex() {
		t.Errorf("kernels: fingerprint %v, want %v", m["fingerprint"], reg.Params.FingerprintHex())
	}
	if ks, _ := m["kernels"].([]any); len(ks) != len(reg.Entries) {
		t.Errorf("kernels: %d listed, want %d", len(ks), len(reg.Entries))
	}

	for _, e := range reg.Entries {
		if m := getJSON(t, srv.URL+"/selftest/"+e.Name, http.StatusOK); m["bit_identical"] != true || m["kernel"] != e.Name {
			t.Fatalf("selftest %s: %v", e.Name, m)
		}
		// One request alone is never lane-packed, so the served output
		// must be the exporter's exact ciphertext.
		reqData, err := wire.EncodeRequest(reg.Params, e.Sample)
		if err != nil {
			t.Fatal(err)
		}
		code, body := post(t, srv.URL+"/run/"+e.Name, reqData)
		if code != http.StatusOK {
			t.Fatalf("POST /run/%s: status %d: %s", e.Name, code, body)
		}
		out, err := wire.DecodeResponse(reg.Params, body)
		if err != nil {
			t.Fatal(err)
		}
		if !reg.Params.CiphertextEqual(out, e.Expected) {
			t.Fatalf("%s: served output is not bit-identical to the exporter's", e.Name)
		}
	}

	// Self-tests run on the catalog's private session; only the runs
	// reach the scheduler's counters.
	if m := getJSON(t, srv.URL+"/stats", http.StatusOK); m["served"] != float64(len(reg.Entries)) {
		t.Errorf("stats after %d runs: %v", len(reg.Entries), m)
	}

	name := reg.Entries[0].Name
	if code, _ := post(t, srv.URL+"/run/"+name, []byte("not a wire object")); code != http.StatusBadRequest {
		t.Errorf("garbage POST /run: status %d, want 400", code)
	}
	foreign, err := wire.EncodeRequest(reg.Params, reg.Entries[0].Sample)
	if err != nil {
		t.Fatal(err)
	}
	// The fingerprint leads the payload, right after the 14-byte
	// envelope header; resigning keeps the checksum valid.
	foreign[14] ^= 0xFF
	sum := sha256.Sum256(foreign[:len(foreign)-sha256.Size])
	copy(foreign[len(foreign)-sha256.Size:], sum[:])
	if code, body := post(t, srv.URL+"/run/"+name, foreign); code != http.StatusConflict {
		t.Errorf("foreign-fingerprint POST /run: status %d, want 409: %s", code, body)
	}
	if code, _ := post(t, srv.URL+"/run/no-such-kernel", foreign); code != http.StatusNotFound {
		t.Errorf("POST /run/no-such-kernel: status %d, want 404", code)
	}
	if m := getJSON(t, srv.URL+"/selftest/no-such-kernel", http.StatusNotFound); m["ok"] != false {
		t.Errorf("selftest of an unknown kernel: %v", m)
	}
}
