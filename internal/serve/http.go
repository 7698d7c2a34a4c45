package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"tango/internal/networks"
	"tango/internal/resilience"
	"tango/internal/tensor"
)

// This file is the HTTP frontend of the serving subsystem (stdlib net/http
// only): tango.Server.Handler documents its endpoints, the seed-based
// requests, the X-Priority header, the error mapping and the health codes.
// Inference bodies are JSON as encoding/json reads it: decodeInference, a
// single-pass decoder, takes the bodies clients actually send and stores the
// same request bit for bit; whatever it declines goes to json.Unmarshal.

// maxRequestBody bounds request JSON.  Bodies are fully buffered before
// decoding, so the bound is sized to the workload, not generously: the
// largest valid image (VGGNet, 3x224x224 float32) is ~1.7 MB of JSON text
// at full float precision; 8 MB leaves headroom without letting a burst of
// oversized posts buffer gigabytes.
const maxRequestBody = 8 << 20

// classifyRequest is the POST /v1/classify body.
type classifyRequest struct {
	Benchmark string    `json:"benchmark"`
	Image     []float32 `json:"image,omitempty"`
	Seed      *uint64   `json:"seed,omitempty"`
}

// decodeFast stores body into q if decodeInference takes it, and reports
// whether it did.
func (q *classifyRequest) decodeFast(body []byte) bool {
	return decodeInference(body, "image", &q.Benchmark, &q.Image, &q.Seed)
}

// classifyResponse is the POST /v1/classify success body.
type classifyResponse struct {
	Benchmark     string    `json:"benchmark"`
	Class         int       `json:"class"`
	Probabilities []float32 `json:"probabilities"`
}

// forecastRequest is the POST /v1/forecast body.
type forecastRequest struct {
	Benchmark string    `json:"benchmark"`
	History   []float64 `json:"history,omitempty"`
	Seed      *uint64   `json:"seed,omitempty"`
}

// decodeFast is classifyRequest.decodeFast for a history.
func (q *forecastRequest) decodeFast(body []byte) bool {
	return decodeInference(body, "history", &q.Benchmark, &q.History, &q.Seed)
}

// forecastResponse is the POST /v1/forecast success body.
type forecastResponse struct {
	Benchmark  string  `json:"benchmark"`
	Prediction float64 `json:"prediction"`
}

// Handler returns the Server's HTTP API as a stdlib http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("POST /v1/forecast", s.handleForecast)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// bodyBufs recycles request-body buffers; one that grew past maxPooledBody is
// dropped, so a VGGNet-sized post does not pin megabytes per P for good.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// decodeRequest reads and decodes a request body into v.  A zero-length
// body is a shape error (wrapped ErrShape -> 400), matching how the compute
// engine rejects empty inputs.  A body of declared length within the limit is
// read into a pooled buffer of that size; v keeps no reference to it.
func decodeRequest(w http.ResponseWriter, r *http.Request, v interface{ decodeFast([]byte) bool }) bool {
	var body []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= maxRequestBody {
		buf := bodyBufs.Get().(*[]byte)
		if cap(*buf) < int(n) {
			*buf = make([]byte, n)
		}
		if cap(*buf) <= maxPooledBody {
			defer bodyBufs.Put(buf)
		}
		body = (*buf)[:n]
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, err) // 413 via writeError
		} else {
			// Truncated/aborted uploads are client faults, not 500s.
			writeError(w, fmt.Errorf("tango: %w: reading request body: %v", tensor.ErrShape, err))
		}
		return false
	}
	if len(body) == 0 {
		writeError(w, fmt.Errorf("tango: %w: empty request body", tensor.ErrShape))
		return false
	}
	if v.decodeFast(body) {
		return true
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, fmt.Errorf("tango: %w: invalid request JSON: %v", tensor.ErrShape, err))
		return false
	}
	return true
}

// decodeInference is a strict single-pass decoder in front of json.Unmarshal,
// not instead of it: it either stores exactly what json.Unmarshal would store
// into a zero request and reports true, or stores nothing and reports false —
// the caller then runs json.Unmarshal on the same bytes, so every status code
// and error message is encoding/json's.  It takes one JSON object with the
// keys "benchmark" (a printable-ASCII string with no escape), valuesKey (a
// non-empty array of numbers) and "seed" (an unsigned decimal integer), each
// at most once, in any order, JSON whitespace between tokens and nothing else
// after; any other key, case, value or byte declines.  Numbers are cut by the
// JSON grammar and converted by the calls encoding/json makes, ParseFloat(tok,
// 32 or 64) and ParseUint, so the bits agree (docs/ARCHITECTURE.md).
func decodeInference[F float32 | float64](b []byte, valuesKey string, bench *string, values *[]F, seed **uint64) bool {
	bits := 32
	if _, wide := any(F(0)).(float64); wide {
		bits = 64
	}
	var (
		name string
		vals []F
		sd   *uint64
		seen [3]bool
	)
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	for more := true; more; {
		key, j, ok := scanPlainString(b, skipSpace(b, i+1))
		if i = skipSpace(b, j); !ok || i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)
		var field int
		switch string(key) {
		case "benchmark":
			field = 0
			s, j, ok := scanPlainString(b, i)
			if !ok {
				return false
			}
			name, i = string(s), j
		case valuesKey:
			field = 1
			end := bytes.IndexByte(b[i:], ']')
			if end < 0 || b[i] != '[' {
				return false
			}
			// one element per comma, and no more than the bytes can spell
			vals = make([]F, 0, min(bytes.Count(b[i:i+end], []byte{','})+1, end/2))
			for b[i] != ']' {
				i = skipSpace(b, i+1)
				j := scanNumber(b, i)
				f, err := strconv.ParseFloat(string(b[i:j]), bits)
				if i = skipSpace(b, j); err != nil || i == len(b) || b[i] != ',' && b[i] != ']' {
					return false
				}
				vals = append(vals, F(f))
			}
			i++
		case "seed":
			field = 2
			j := scanNumber(b, i)
			u, err := strconv.ParseUint(string(b[i:j]), 10, 64)
			if err != nil {
				return false
			}
			sd, i = &u, j
		default:
			return false
		}
		if seen[field] {
			return false
		}
		seen[field] = true
		if i = skipSpace(b, i); i == len(b) || b[i] != ',' && b[i] != '}' {
			return false
		}
		more = b[i] == ','
	}
	if skipSpace(b, i+1) != len(b) {
		return false
	}
	*bench, *values, *seed = name, vals, sd
	return true
}

// skipSpace returns the index of the first byte of b at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanPlainString returns the contents of the JSON string that opens at b[i]
// and the index after its closing quote; ok is false unless b[i] opens a
// string of printable ASCII with no escape.
func scanPlainString(b []byte, i int) (s []byte, next int, ok bool) {
	if i < len(b) && b[i] == '"' {
		for j := i + 1; j < len(b) && 0x20 <= b[j] && b[j] <= 0x7e && b[j] != '\\'; j++ {
			if b[j] == '"' {
				return b[i+1 : j], j + 1, true
			}
		}
	}
	return nil, i, false
}

// scanNumber returns the index after the JSON number that starts at b[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or i when none does.
func scanNumber(b []byte, i int) int {
	digits := func(j int) int {
		for j < len(b) && '0' <= b[j] && b[j] <= '9' {
			j++
		}
		return j
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	k := digits(j)
	if k == j || b[j] == '0' && k > j+1 {
		return i // no digit, or a zero before another
	}
	if j = k; j < len(b) && b[j] == '.' {
		if j = digits(j + 1); b[j-1] == '.' {
			return i
		}
	}
	if j < len(b) && b[j]|0x20 == 'e' {
		if k = j + 1; k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		if j = digits(k); j == k {
			return i
		}
	}
	return j
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req classifyRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	image := req.Image
	if image == nil && req.Seed != nil {
		e, err := s.loaded(req.Benchmark, networks.KindCNN)
		if err == nil {
			image, err = e.SampleImage(*req.Seed)
		}
		if err != nil {
			writeError(w, err)
			return
		}
	}
	ctx := WithPriority(r.Context(), parsePriority(r.Header.Get("X-Priority")))
	res, err := s.Classify(ctx, req.Benchmark, image)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, classifyResponse{
		Benchmark:     req.Benchmark,
		Class:         res.Class,
		Probabilities: res.Probabilities,
	})
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	var req forecastRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	history := req.History
	if history == nil && req.Seed != nil {
		e, err := s.loaded(req.Benchmark, networks.KindRNN)
		if err == nil {
			history, err = e.SampleHistory(*req.Seed)
		}
		if err != nil {
			writeError(w, err)
			return
		}
	}
	ctx := WithPriority(r.Context(), parsePriority(r.Header.Get("X-Priority")))
	pred, err := s.Forecast(ctx, req.Benchmark, history)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, forecastResponse{Benchmark: req.Benchmark, Prediction: pred})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rep := s.Health()
	status := http.StatusOK // healthy AND degraded: degraded is not dead
	if rep.Status == HealthDraining {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, rep)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", prometheusContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, MetricsText(s.Stats()))
	_, _ = io.WriteString(w, runtimeMetricsText())
}

// WriteJSON writes v as a JSON response, indented by two spaces: the
// encoder of every endpoint but /metrics.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// writeError maps a serving error to its HTTP status and writes the
// {"error":...} body.  Backpressure rejections (429) and degraded/closed
// rejections (503) carry a Retry-After hint so well-behaved clients back
// off for a breaker cooldown instead of hammering a loaded server.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, tensor.ErrShape):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotServed):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDegraded):
		// Breaker open: fail fast, invite the client back after cooldown.
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or timed out while queued.
		status = http.StatusServiceUnavailable
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
	}
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// retryAfter is the Retry-After hint (in seconds) attached to 429 and 503
// rejections: the breaker cooldown, so clients that honor it return when
// an open breaker is ready to probe recovery.
const retryAfter = resilience.DefaultCooldown
