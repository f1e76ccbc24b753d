package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// maxLine bounds what either side of the protocol reads at once: a
// POSTed spec, and one NDJSON event line. A figure's data chunk and an
// outcome line are a few KB.
const maxLine = 1 << 20

// Client speaks the sweep server's NDJSON protocol: POST the spec,
// decode events, reassemble the deterministic byte stream. It is what
// `cgserve sweep` runs in place of a local backend — everything
// downstream of it (stdout, diffs, goldens) cannot tell the
// difference.
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8080".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient). Sweeps
	// are long-lived streams; leave timeouts to contexts, not the
	// transport.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Sweep posts spec and streams the sweep to w: data events append their
// bytes verbatim (so w receives exactly the batch cgsweep output for
// the same figures), outcome events append one results.Encode line
// each. It returns the server's terminal stats. A connection that drops
// before the done event — a truncated stream — is an error, never a
// silently short table, and so is an event line of maxLine bytes or
// more.
func (c *Client) Sweep(spec Spec, w io.Writer) (DoneStats, error) {
	var stats DoneStats
	body, err := json.Marshal(spec)
	if err != nil {
		return stats, fmt.Errorf("serve: encode spec: %w", err)
	}
	resp, err := c.http().Post(strings.TrimRight(c.Base, "/")+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return stats, fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return stats, fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return stats, fmt.Errorf("serve: bad event line: %w", err)
		}
		switch {
		case ev.Error != "":
			return stats, fmt.Errorf("serve: %s", ev.Error)
		case ev.Done != nil:
			return *ev.Done, nil
		case len(ev.Outcome) > 0:
			if _, err := w.Write(append(ev.Outcome, '\n')); err != nil {
				return stats, err
			}
		case ev.Data != "":
			if _, err := io.WriteString(w, ev.Data); err != nil {
				return stats, err
			}
		}
	}
	switch err := sc.Err(); {
	case errors.Is(err, bufio.ErrTooLong):
		return stats, fmt.Errorf("serve: event line of %d bytes or more", maxLine)
	case err != nil:
		return stats, fmt.Errorf("serve: %w", err)
	}
	return stats, fmt.Errorf("serve: stream truncated before done event")
}
