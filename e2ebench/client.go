package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path"
	"strconv"
	"time"

	"repro/serve/wire"
)

// spanHeader carries the client span's id to the server-side handler
// span, so a traced request's handler time nests under its round trip.
const spanHeader = "X-E2e-Span"

// httpServer serves a handler on a loopback port.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

// startHTTP listens on an ephemeral loopback port and serves h. With a
// tracer, every request is recorded as a handler span.
func startHTTP(h http.Handler, tr *tracer, spanPrefix string) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if tr != nil {
		h = tracedHandler(tr, spanPrefix, h)
	}
	s := &httpServer{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close shuts the listener down and waits for in-flight requests.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves nothing to undo
	<-s.done
}

// routeName names a request's route for span names and per-route
// metrics: the last path element, with "_bin" for binary frames.
func routeName(r *http.Request) string {
	name := path.Base(r.URL.Path)
	if r.Header.Get("Content-Type") == wire.ContentType {
		name += "_bin"
	}
	return name
}

// tracedHandler wraps h in a handler span, linked to the client span
// named by spanHeader, and passes the span on through the context.
func tracedHandler(tr *tracer, spanPrefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sp := tr.begin(spanPrefix+routeName(r), parent)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp.id)))
		sp.end()
	})
}

// client is the load generator's HTTP client, limited to conns
// connections to its one server.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, base: base, tr: tr}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// statusOf returns the HTTP status an error carries, 0 if none.
func statusOf(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	return 0
}

// post sends one request and returns the response body; a non-2xx
// answer is a *statusError.
func (c *client) post(route, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+route, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	sp := c.tr.begin("client."+routeName(req), 0)
	if c.tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	return b, nil
}

// get fetches route and returns the body.
func (c *client) get(route string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + route)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	return b, nil
}

// predictBatchBin classifies rows through a binary /predict_batch.
func (c *client) predictBatchBin(route string, rows [][]float64) ([]int, error) {
	body, err := wire.AppendMatrixF64(nil, rows, len(rows[0]))
	if err != nil {
		return nil, err
	}
	b, err := c.post(route, wire.ContentType, body)
	if err != nil {
		return nil, err
	}
	return decodeClasses(b)
}

// decodeClasses decodes a TypeClasses frame.
func decodeClasses(b []byte) ([]int, error) {
	d := wire.NewDecoder(bytes.NewReader(b))
	t, err := d.Next()
	if err != nil {
		return nil, err
	}
	if t != wire.TypeClasses {
		return nil, fmt.Errorf("answer is a %v frame, want classes", t)
	}
	n, err := d.ClassCount()
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	return out, d.Classes(out)
}

// predictBatchJSON classifies rows through a JSON /predict_batch.
func (c *client) predictBatchJSON(route string, rows [][]float64) ([]int, error) {
	body, err := json.Marshal(map[string]any{"x": rows})
	if err != nil {
		return nil, err
	}
	b, err := c.post(route, "application/json", body)
	if err != nil {
		return nil, err
	}
	var out struct {
		Classes []int `json:"classes"`
	}
	return out.Classes, json.Unmarshal(b, &out)
}

// predictJSON classifies one row through JSON /predict.
func (c *client) predictJSON(route string, x []float64) (int, error) {
	body, err := json.Marshal(map[string]any{"x": x})
	if err != nil {
		return 0, err
	}
	b, err := c.post(route, "application/json", body)
	if err != nil {
		return 0, err
	}
	var out struct {
		Class *int `json:"class"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return 0, err
	}
	if out.Class == nil {
		return 0, fmt.Errorf("predict answer has no class: %s", b)
	}
	return *out.Class, nil
}

// learnBin sends one labeled feedback frame to /learn.
func (c *client) learnBin(route string, x []float64, label int) error {
	b, err := c.post(route, wire.ContentType, wire.AppendLearn(nil, x, label))
	if err != nil {
		return err
	}
	d := wire.NewDecoder(bytes.NewReader(b))
	t, err := d.Next()
	if err != nil {
		return err
	}
	if t != wire.TypeFeedAck {
		return fmt.Errorf("learn answer is a %v frame, want a feedback ack", t)
	}
	_, err = d.FeedAck()
	return err
}
