package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client speaks the job API of a daemon serving Handler. Every call is one
// request, decoded into this package's own types, and every refusal comes
// back as the error the Server itself returns (ErrQueueFull as a
// *QueueFullError, ErrDraining, ErrNotFound, ErrNotFinished), so errors.Is
// reads the same on both sides of the socket. A Client is safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at base ("http://host:port").
// A nil hc means http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// QueueFullError is ErrQueueFull with the backpressure hint: the Server
// returns it carrying its configured RetryAfter, and the Client carrying
// the whole seconds of the reply's Retry-After header.
type QueueFullError struct{ RetryAfter time.Duration }

func (e *QueueFullError) Error() string { return ErrQueueFull.Error() }
func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// StatusError is a reply no sentinel covers: 400 (an invalid scenario or
// an unknown result format), 413 (body too large), 500, or a success code
// other than the endpoint's own.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Msg) }

// The fixed, capped backoff Wait polls on.
const (
	waitFirstPoll = 5 * time.Millisecond
	waitMaxPoll   = 250 * time.Millisecond
)

// Submit sends one scenario body (the JSON cmd/medea-scenarios runs) and
// returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, body io.Reader) (JobStatus, error) {
	var st JobStatus
	return st, c.decode(ctx, http.MethodPost, "/v1/jobs", http.StatusAccepted, body, &st)
}

// Status returns a snapshot of one job.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	return st, c.decode(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), http.StatusOK, nil, &st)
}

// Cancel cancels one job and returns its state right after the call (see
// Server.Cancel).
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	return st, c.decode(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), http.StatusOK, nil, &st)
}

// List returns every job in submission order.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var list []JobStatus
	return list, c.decode(ctx, http.MethodGet, "/v1/jobs", http.StatusOK, nil, &list)
}

// Wait polls a job until it is terminal and returns its final status. The
// polls start waitFirstPoll apart and double up to waitMaxPoll; ctx bounds
// the whole wait.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	delay := waitFirstPoll
	for {
		st, err := c.Status(ctx, id)
		if err != nil || st.State.Terminal() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(delay):
		}
		delay = min(2*delay, waitMaxPoll)
	}
}

// Result returns a done job's rendered results in format ("" means the
// scenario's own output setting, as on the CLI). A job that has not
// finished returns ErrNotFinished; a failed or canceled one its cause.
func (c *Client) Result(ctx context.Context, id, format string) (string, error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/result"
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	out, err := c.do(ctx, http.MethodGet, path, http.StatusOK, nil)
	return string(out), err
}

func (c *Client) decode(ctx context.Context, method, path string, want int, body io.Reader, v any) error {
	reply, err := c.do(ctx, method, path, want, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(reply, v)
}

// do makes one request and returns the reply's body if its code is want
// (202 for a submission, 200 for everything else), or the refusal as the
// package's error for it. Any other code, 2xx included, is a *StatusError:
// the wire contract is exact.
func (c *Client) do(ctx context.Context, method, path string, want int, body io.Reader) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == want {
		return reply, nil
	}
	// Error replies are {"error": ...}, plus the job's id and state on a
	// 409; a JobStatus holds all three.
	var e JobStatus
	json.Unmarshal(reply, &e)
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return nil, &QueueFullError{RetryAfter: time.Duration(secs) * time.Second}
	case http.StatusServiceUnavailable:
		return nil, ErrDraining
	case http.StatusNotFound:
		return nil, ErrNotFound
	case http.StatusConflict:
		if !e.State.Terminal() {
			return nil, ErrNotFinished
		}
		return nil, errors.New(e.Error)
	}
	return nil, &StatusError{Code: resp.StatusCode, Msg: cmp.Or(e.Error, strings.TrimSpace(string(reply)))}
}
