package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// brokenReader sends a whole valid scenario, then fails: the request dies
// before its body is complete, the client half of a dropped connection.
type brokenReader struct{ sent bool }

func (b *brokenReader) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, smallScenarioJSON), nil
	}
	return 0, errors.New("client hung up")
}

// TestHostileTrafficLeavesDaemonServing throws malformed JSON, oversized
// bodies and bodies that fail mid-flight at a daemon from four clients,
// between valid submissions run by the real runner. No hostile submission
// may be accepted, every accepted job must end terminal, /healthz must
// still answer, and once the daemon has drained and closed the goroutine
// count must be back to where it was before it started.
func TestHostileTrafficLeavesDaemonServing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Workers: 2, QueueDepth: 16, MaxBodyBytes: 4096})
	ts := httptest.NewServer(s.Handler())
	transport := &http.Transport{}
	c := NewClient(ts.URL, &http.Client{Transport: transport})

	hostile := []struct {
		name string
		body func() io.Reader
	}{
		{"malformed", func() io.Reader { return strings.NewReader(`{"name": "broken", "workload":`) }},
		{"oversized", func() io.Reader { return bytes.NewReader(make([]byte, 8192)) }},
		{"mid-flight failure", func() io.Reader { return &brokenReader{} }},
	}
	var (
		mu       sync.Mutex
		accepted []string
		wg       sync.WaitGroup
	)
	for client := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 8 {
				if k := (client + i) % 4; k < len(hostile) {
					if st, err := c.Submit(t.Context(), hostile[k].body()); err == nil {
						t.Errorf("%s submission accepted as %s", hostile[k].name, st.ID)
					}
					continue
				}
				st, err := c.Submit(t.Context(), strings.NewReader(smallScenarioJSON))
				if err != nil {
					t.Errorf("valid submission: %v", err)
					continue
				}
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	defer cancel()
	for _, id := range accepted {
		if st, err := c.Wait(ctx, id); err != nil || st.State != StateDone {
			t.Errorf("%s: %+v, %v; want done", id, st, err)
		}
	}
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(accepted) || len(accepted) != 8 {
		t.Errorf("%d jobs listed, %d accepted, want 8 of each", len(list), len(accepted))
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after hostile traffic: %v, %v", resp, err)
	}
	resp.Body.Close()

	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	transport.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			var dump strings.Builder
			pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines after Shutdown, %d before the daemon started:\n%s", runtime.NumGoroutine(), baseline, dump.String())
		}
	}
}

// TestClientRequiresExactCode pins the wire contract from the client's
// side: a submission succeeds only on 202 and every other call only on
// 200, so a daemon answering any other success code reads as a
// *StatusError carrying that code, not as success.
func TestClientRequiresExactCode(t *testing.T) {
	st := `{"id": "job-000001", "state": "done"}`
	for _, tc := range []struct {
		name string
		code int
		call func(*Client) error
	}{
		{"submit answered 200", http.StatusOK, func(c *Client) error {
			_, err := c.Submit(t.Context(), strings.NewReader(smallScenarioJSON))
			return err
		}},
		{"submit answered 201", http.StatusCreated, func(c *Client) error {
			_, err := c.Submit(t.Context(), strings.NewReader(smallScenarioJSON))
			return err
		}},
		{"status answered 202", http.StatusAccepted, func(c *Client) error {
			_, err := c.Status(t.Context(), "job-000001")
			return err
		}},
		{"cancel answered 202", http.StatusAccepted, func(c *Client) error {
			_, err := c.Cancel(t.Context(), "job-000001")
			return err
		}},
		{"list answered 203", http.StatusNonAuthoritativeInfo, func(c *Client) error {
			_, err := c.List(t.Context())
			return err
		}},
		{"result answered 206", http.StatusPartialContent, func(c *Client) error {
			_, err := c.Result(t.Context(), "job-000001", "")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.code)
				io.WriteString(w, st)
			}))
			defer ts.Close()
			var se *StatusError
			if err := tc.call(NewClient(ts.URL, ts.Client())); !errors.As(err, &se) || se.Code != tc.code {
				t.Errorf("err = %v, want a *StatusError with code %d", err, tc.code)
			}
		})
	}
}
