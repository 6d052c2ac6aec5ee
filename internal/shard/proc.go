package shard

// The stdio transports (ProcWorker, PipeWorker, ServeWorker) stay only
// because bench/'s shard.proc_spawn_ms and shard.pipe_overhead_ms probes
// call them; the ROADMAP item "One benchmark PR, then the stdio transport
// goes" deletes this file with Coordinator.Workers.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/resultcache"
)

// ProcSpec describes how to launch a local worker process.
type ProcSpec struct {
	// Command is the argv of a process that runs ServeWorker on its
	// stdin/stdout.
	Command []string
}

// ProcWorker is a worker subprocess speaking the frame protocol on its
// stdin/stdout. The process runs under the coordinator's context
// (exec.CommandContext), so canceling the run kills every worker.
type ProcWorker struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	nextID int64
}

// StartProc launches a worker process per spec. Worker stderr passes
// through to the parent's, so worker-side logs land in the run's log.
func StartProc(ctx context.Context, spec ProcSpec) (*ProcWorker, error) {
	if len(spec.Command) == 0 {
		return nil, fmt.Errorf("shard: empty worker command")
	}
	cmd := exec.CommandContext(ctx, spec.Command[0], spec.Command[1:]...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("shard: starting worker %q: %w", spec.Command[0], err)
	}
	return &ProcWorker{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}, nil
}

// Run implements Worker.
func (p *ProcWorker) Run(ctx context.Context, req *Request, progress func(*Response)) (*Response, error) {
	p.nextID++
	req.ID = p.nextID
	return exchange(ctx, p.stdin, p.stdout, req, progress)
}

// Close shuts the worker down: closing stdin makes a healthy worker's
// serve loop exit cleanly; a wedged one is killed after a grace period.
func (p *ProcWorker) Close() error {
	p.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		return <-done
	}
}

// ProcFactory returns a Coordinator.NewWorker that launches processes
// per spec.
func ProcFactory(spec ProcSpec) func(ctx context.Context) (Worker, error) {
	return func(ctx context.Context) (Worker, error) { return StartProc(ctx, spec) }
}

// ServeWorker runs the worker side of the protocol on a byte stream:
// read a Request frame, execute it, stream progress, write the terminal
// Response, repeat until the stream closes. Application failures produce
// TypeError frames and the loop continues; only a broken stream or a
// canceled context ends it.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, cache *resultcache.Cache) error {
	for {
		var req Request
		if err := ReadFrame(r, &req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		resp := handleRequest(ctx, &req, w, cache)
		if err := WriteFrame(w, resp); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// PipeWorker is an in-process Worker speaking the full frame protocol
// over io.Pipe pairs, so protocol encode/decode runs without process
// spawn cost.
type PipeWorker struct {
	w      *io.PipeWriter
	r      *io.PipeReader
	done   chan error
	nextID int64
}

// StartPipe starts a ServeWorker goroutine wired to a PipeWorker.
func StartPipe(ctx context.Context, cache *resultcache.Cache) *PipeWorker {
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	p := &PipeWorker{w: reqW, r: respR, done: make(chan error, 1)}
	go func() {
		err := ServeWorker(ctx, reqR, respW, cache)
		respW.CloseWithError(err)
		p.done <- err
	}()
	return p
}

// Run implements Worker.
func (p *PipeWorker) Run(ctx context.Context, req *Request, progress func(*Response)) (*Response, error) {
	p.nextID++
	req.ID = p.nextID
	return exchange(ctx, p.w, p.r, req, progress)
}

// Close implements Worker. Both pipe ends are closed: the request end so
// an idle serve loop sees EOF, and the response end so a serve loop
// blocked writing a frame the coordinator abandoned mid-exchange (e.g.
// after cancellation) fails out instead of deadlocking the close.
func (p *PipeWorker) Close() error {
	p.w.Close()
	p.r.CloseWithError(errors.New("shard: worker closed"))
	return <-p.done
}

// exchange writes one request frame and reads its reply.
func exchange(ctx context.Context, w io.Writer, r io.Reader, req *Request, progress func(*Response)) (*Response, error) {
	req.Version = ProtocolVersion
	if err := WriteFrame(w, req); err != nil {
		return nil, err
	}
	return readReply(ctx, r, req.ID, progress)
}
