package obs

import (
	"net/http"
	"sync/atomic"
	"time"
)

// HTTPMetrics instruments REST routes against one registry. Routes are
// labelled by their registered pattern, never the raw request path, so
// label cardinality stays bounded no matter what clients send.
type HTTPMetrics struct {
	requests *CounterVec   // si_http_requests_total{route,method,class}
	latency  *HistogramVec // si_http_request_duration_seconds{route}
	inflight *Gauge        // si_http_in_flight_requests
}

// NewHTTPMetrics registers the HTTP metric families on r.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		requests: r.CounterVec("si_http_requests_total",
			"HTTP requests served, by route pattern, method and status class.",
			"route", "method", "class"),
		latency: r.HistogramVec("si_http_request_duration_seconds",
			"HTTP request latency in seconds, by route pattern.",
			nil, "route"),
		inflight: r.Gauge("si_http_in_flight_requests",
			"Requests currently being served."),
	}
}

// statusRecorder captures the response status for the class label.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// statusClasses label a status code by code/100 (net/http allows 100-999).
var statusClasses = [10]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx", "6xx", "7xx", "8xx", "9xx"}

// Instrument wraps one handler, labelling its series with the route
// pattern. The pattern is passed explicitly because the Go 1.22 mux
// does not expose it to handlers. The route's latency series is resolved
// once, on its first request, so a route never served adds no series.
func (m *HTTPMetrics) Instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	var latency atomic.Pointer[Histogram]
	return func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Inc()
		defer m.inflight.Dec()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(rec, r)
		lat := latency.Load()
		if lat == nil {
			lat = m.latency.With(route)
			latency.Store(lat)
		}
		lat.Observe(time.Since(start).Seconds())
		m.requests.With(route, r.Method, statusClasses[min(max(rec.status/100, 0), 9)]).Inc()
	}
}

// Handler serves the registry in Prometheus text exposition format —
// the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
