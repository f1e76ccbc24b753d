package dist

import (
	"fmt"
	"io"
	"os/exec"

	"repro/internal/engine"
)

// Command returns a Spawner that launches argv as a child process per
// worker, wired to the protocol over its stdin/stdout. The child's
// stderr passes through to stderr so worker diagnostics stay visible.
// This is cgsweep's production spawner; anything that presents the
// two-pipe shape (ssh, a container runtime) slots in the same way.
func Command(argv []string, stderr io.Writer) Spawner {
	return func(id int) (*Conn, error) {
		if len(argv) == 0 {
			return nil, fmt.Errorf("dist: empty worker command")
		}
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Stderr = stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("dist: start worker %d (%s): %w", id, argv[0], err)
		}
		return &Conn{
			W: stdin,
			R: stdout,
			Close: func() error {
				// The coordinator is done with this worker — batch finished
				// or its transport failed — and has stopped reading its
				// stdout, so waiting politely risks deadlock: a dying
				// worker draining long in-flight cells could fill the pipe
				// and block forever. Kill, then reap. The exit status
				// carries no extra signal (transport failures were already
				// charged to the cells by the read path).
				cmd.Process.Kill()
				cmd.Wait()
				return nil
			},
		}, nil
	}
}

// InProcess returns a Spawner that serves the protocol from a goroutine
// over in-memory pipes, each worker on its own engine pool of the given
// size. It exercises every byte of the real protocol — encode, decode,
// flow control — without fork/exec, which makes it the test double and
// a zero-dependency fallback where spawning processes is impossible.
func InProcess(workers int) Spawner {
	return func(id int) (*Conn, error) {
		jobR, jobW := io.Pipe()
		resR, resW := io.Pipe()
		go func() {
			err := Serve(jobR, resW, engine.New(workers))
			// Serve returned: no more results will ever flow. Propagate
			// the state through the pipe so the coordinator's reads end
			// instead of blocking forever.
			if err != nil {
				resW.CloseWithError(err)
			} else {
				resW.Close()
			}
		}()
		return &Conn{W: jobW, R: resR}, nil
	}
}
