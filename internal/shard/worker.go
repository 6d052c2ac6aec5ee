package shard

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/resultcache"
	"repro/internal/scenario"
)

// Worker executes shard requests. Run returning an error means the
// worker itself is unusable — it crashed, its stream broke or
// desynchronized — and the coordinator replaces it and retries the shard
// elsewhere. A TypeError Response, by contrast, is an application
// failure: the worker is healthy, the request can never succeed (the
// simulator is deterministic), and the coordinator fails fast.
type Worker interface {
	Run(ctx context.Context, req *Request, progress func(*Response)) (*Response, error)
	Close() error
}

// handleRequest executes one shard request through the full scenario
// stack, streaming progress frames to w, and returns the terminal frame
// (never nil). A non-nil cache is scoped per request for its counters.
func handleRequest(ctx context.Context, req *Request, w io.Writer, cache *resultcache.Cache) *Response {
	fail := func(format string, args ...any) *Response {
		return &Response{ID: req.ID, Type: TypeError, Error: fmt.Sprintf(format, args...)}
	}
	if req.Version != ProtocolVersion {
		return fail("protocol version %d, this worker speaks %d", req.Version, ProtocolVersion)
	}
	if req.CodeVersion != resultcache.CodeVersion {
		return fail("code version %q, this worker runs %q", req.CodeVersion, resultcache.CodeVersion)
	}
	s, err := scenario.Parse(req.Scenario)
	if err != nil {
		return fail("%v", err)
	}
	if req.Parallelism > 0 {
		s.Parallelism = req.Parallelism
	}
	scope := cache.Scope()
	s.Cache = scope

	// Best-effort progress: the shard's point count up front, so the
	// coordinator can log "%d points" per shard as workers start.
	total := len(scenario.ShardPoints(req.Shard, req.Shards, s.NumPoints()))
	_ = WriteFrame(w, &Response{ID: req.ID, Type: TypeProgress, Done: 0, Total: total})

	rows, err := scenario.RunShardCtx(ctx, s, req.Shard, req.Shards)
	if err != nil {
		return fail("%v", err)
	}
	stats := scope.Stats()
	return &Response{
		ID:    req.ID,
		Type:  TypeResult,
		Done:  len(rows),
		Total: total,
		Rows:  rows,
		Cache: &stats,
		Root:  RowsRoot(rows),
	}
}

// readReply reads the reply frames to request id up to the terminal one,
// handing each progress frame to progress. Every transport reads its
// replies through it.
func readReply(ctx context.Context, r io.Reader, id int64, progress func(*Response)) (*Response, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var resp Response
		if err := ReadFrame(r, &resp); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("shard: worker closed the stream mid-request (crashed?)")
			}
			return nil, err
		}
		if resp.ID != id {
			return nil, fmt.Errorf("shard: response for request %d while waiting on %d (stream desynchronized)", resp.ID, id)
		}
		switch resp.Type {
		case TypeProgress:
			if progress != nil {
				progress(&resp)
			}
		case TypeResult, TypeError:
			return &resp, nil
		default:
			return nil, fmt.Errorf("shard: unknown frame type %q", resp.Type)
		}
	}
}
