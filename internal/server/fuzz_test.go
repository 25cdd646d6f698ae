package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzSelectBody sends arbitrary selection bodies to arbitrary widget
// names through the real mux, on a dashboard that has run. No response
// is a 5xx (or a panic), and every 4xx carries the JSON error shape.
func FuzzSelectBody(f *testing.F) {
	ts, _ := newInteractiveServer(f)
	h := ts.Config.Handler
	for _, seed := range []struct{ widget, body string }{
		{"regions", `{"values":["east"]}`},
		{"regions", `{"range":["east","west"]}`},
		{"regions", `{"values":[]}`},
		{"regions", `{"values":["east"]} trailing`},
		{"regions", `null`},
		{"regions", `[1]`},
		{"regions", ``},
		{"totals", `{"values":["east","west"]}`},
		{"nope", `{"values":["x"]}`},
		{"a/b", `{}`},
		{"..", `{}`},
	} {
		f.Add(seed.widget, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, widget string, body []byte) {
		if widget == "" || widget == "." || widget == ".." || strings.Contains(widget, "/") {
			return // not one path segment: the stdlib mux routes it nowhere
		}
		req := httptest.NewRequest(http.MethodPost, "/dashboards/inter/select/"+url.PathEscape(widget), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("select %q with %q = %d: %s", widget, body, rec.Code, rec.Body)
		}
		var shape struct{ Error string }
		if rec.Code >= 400 && (json.Unmarshal(rec.Body.Bytes(), &shape) != nil || shape.Error == "") {
			t.Fatalf("select %q with %q = %d without the JSON error shape: %s", widget, body, rec.Code, rec.Body)
		}
	})
}

// TestSelectBodyLimits: the select body is read like every other body —
// an oversize one is a 413 — and must be exactly one JSON object.
func TestSelectBodyLimits(t *testing.T) {
	_, base := newInteractiveServer(t)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"one object", `{"values":["east"]}`, http.StatusOK},
		{"over the limit", `{"values":["` + strings.Repeat("e", maxSelectBytes) + `"]}`, http.StatusRequestEntityTooLarge},
		{"bytes after the object", `{"values":["east"]} {}`, http.StatusBadRequest},
		{"null", ` null`, http.StatusBadRequest},
		{"empty", ``, http.StatusBadRequest},
	} {
		code, body := do(t, http.MethodPost, base+"/select/regions", tc.body)
		var shape map[string]any
		if code != tc.want || json.Unmarshal(body, &shape) != nil || (code != http.StatusOK && shape["error"] == nil) {
			t.Errorf("%s: %d %.100s; want %d with a JSON body", tc.name, code, body, tc.want)
		}
	}
}
