package lease

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"
)

// Sum is the wire self-checksum of a payload or corpus entry: FNV-64a over
// v's canonical JSON encoding (the caller clears v's own Sum field first). A
// pure function of content, so sender and receiver agree independently.
func Sum(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Payloads are plain structs of marshalable fields; unreachable, but
		// never let checksumming panic the wire path.
		return fmt.Sprintf("unmarshalable: %v", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// --- coordinator side ----------------------------------------------------

type wireError struct {
	Error string `json:"error"`
}

// WriteJSON answers with a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = client's problem
}

// WriteJSONError answers with a {"error": ...} rejection.
func WriteJSONError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, wireError{Error: msg})
}

// ErrOlderBuild marks a refusal of a request only an older build's worker
// sends. Handle answers it with HTTP 412, which this build's workers retry
// like a 409 (the same request corrupted in flight looks alike) and older
// builds, which retry only 400 and 409, take as final.
var ErrOlderBuild = errors.New("request from an older build")

// Handle serves one control verb (lease, heartbeat): decode the request,
// call, answer 200 — or 400 for a body that does not parse, 409 for one
// call refuses (a foreign fingerprint, an out-of-range unit) and 412 for
// ErrOlderBuild.
func Handle[Req, Resp any](verb string, call func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad %s request: %v", verb, err))
			return
		}
		resp, err := call(req)
		if errors.Is(err, ErrOlderBuild) {
			WriteJSONError(w, http.StatusPreconditionFailed, err.Error())
			return
		} else if err != nil {
			WriteJSONError(w, http.StatusConflict, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// HandleResult serves the result verb. Results are the one message that
// mutates the census, so the wire boundary is paranoid: the body must parse
// AND match its own FNV-64a self-checksum (sums returns the one it carries
// and the one its content hashes to). A truncated or corrupted payload gets
// HTTP 400 and goes to reject — with the parsed payload when there is one,
// whose claimed identity may pin the failed attempt on a live lease — and is
// never credited. (Workers retry 400s with a fresh POST; a fresh body passes
// unless the corruption is at the sender.)
func HandleResult[P, Resp any](sums func(*P) (carried, computed string),
	reject func(p *P, cause string), credit func(*P) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxLine))
		if err != nil {
			reject(nil, "truncated result body")
			WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("truncated result body: %v", err))
			return
		}
		p := new(P)
		if err := json.Unmarshal(data, p); err != nil {
			reject(nil, "corrupt result body")
			WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad result payload: %v", err))
			return
		}
		if carried, want := sums(p); carried == "" || carried != want {
			cause := fmt.Sprintf("payload checksum mismatch: body carries %q, content hashes to %s", carried, want)
			reject(p, cause)
			WriteJSONError(w, http.StatusBadRequest, cause)
			return
		}
		resp, err := credit(p)
		if err != nil {
			WriteJSONError(w, http.StatusConflict, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// Server binds a coordinator to a TCP listener (-serve ADDR).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ListenAndServe starts serving h on addr (host:port; port 0 picks a free
// one, see Addr). h is usually a coordinator itself; the chaos harness wraps
// it with a wire-fault injector.
func ListenAndServe(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lease: listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *Server) Close() error { return s.srv.Close() }

// --- worker side ---------------------------------------------------------

// DefaultDialBudget is the total retry budget one wire call gets before the
// worker concludes the coordinator is gone. Individual attempts back off
// exponentially with full jitter (so a restarting coordinator is not
// stampeded), and the budget bounds the whole loop.
const DefaultDialBudget = 15 * time.Second

// ErrCoordinatorGone marks a wire call whose whole retry budget was spent
// on transport errors: the coordinator process is unreachable (connection
// refused/reset, EOF mid-response), as opposed to a protocol error it
// answered with. A worker's handshake error wraps it so frontends can exit
// with a distinct status ("could not join") instead of a generic failure.
var ErrCoordinatorGone = errors.New("coordinator unreachable")

// GetJSON fetches url into out, retrying transport errors with jittered
// exponential backoff until the budget is spent (then wrapping
// ErrCoordinatorGone) or ctx is cancelled.
func GetJSON(ctx context.Context, client *http.Client, url string, out any, budget time.Duration) error {
	return doJSON(ctx, client, http.MethodGet, url, nil, out, budget)
}

// PostJSON posts body (JSON) to url and decodes the response into out, with
// the same retry contract as GetJSON. HTTP 400, 409 and 412 are retried
// like transport errors: 400 means the coordinator could not parse or verify
// the body, and 409 and 412 mean it refused the identity it carried — and
// since an honest worker's fingerprint is verified at handshake, all three
// usually mean the request was corrupted in flight; the next attempt sends
// a fresh copy. A budget of nothing but such rejections means the
// coordinator is up and refuses the bytes: that error is not ErrCoordinatorGone.
// Any other non-2xx response is returned immediately, never retried.
func PostJSON(ctx context.Context, client *http.Client, url string, body, out any, budget time.Duration) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return doJSON(ctx, client, http.MethodPost, url, b, out, budget)
}

// rejection renders a non-2xx answer: the coordinator's {"error": ...} when
// the body carries one, else the bare status.
func rejection(resp *http.Response, data []byte) string {
	var we wireError
	if json.Unmarshal(data, &we) == nil && we.Error != "" {
		return fmt.Sprintf("(%d) %s", resp.StatusCode, we.Error)
	}
	return resp.Status
}

// jitter is full jitter over an exponentially growing cap: a random pause in
// [0, min(base·2^(n-1), ceil)] before the n-th retry (n ≥ 1).
func jitter(base time.Duration, n int, ceil time.Duration) time.Duration {
	c := base << uint(min(n-1, 30))
	if c <= 0 || c > ceil {
		c = ceil
	}
	return time.Duration(rand.Int63n(int64(c) + 1)) //nolint:gosec // jitter, not crypto
}

func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, out any, budget time.Duration) error {
	if budget <= 0 {
		budget = DefaultDialBudget
	}
	deadline := time.Now().Add(budget)
	base := budget / 64
	if base < time.Millisecond {
		base = time.Millisecond
	}
	maxSleep := budget / 4
	var lastErr error
	rejected := 0 // attempts answered with 400, 409 or 412
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Jittered: spreads a fleet of workers hammering a restarting
			// coordinator, instead of the old fixed-250ms lockstep.
			sleep := jitter(base, attempt, maxSleep)
			if time.Now().Add(sleep).After(deadline) {
				if rejected == attempt {
					return fmt.Errorf("coordinator rejected all %d attempts over %v: %v", attempt, budget, lastErr)
				}
				return fmt.Errorf("%w after %d attempts over %v: %v", ErrCoordinatorGone, attempt, budget, lastErr)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sleep):
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue // transport error: coordinator restarting or gone; retry
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, MaxLine))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusBadRequest, http.StatusConflict, http.StatusPreconditionFailed:
			// The coordinator could not parse, verify, or accept what arrived
			// — truncation or corruption on the wire. Retrying sends a fresh,
			// intact copy; the budget bounds a genuinely bad sender.
			lastErr = fmt.Errorf("coordinator rejected body: %s", rejection(resp, data))
			rejected++
			continue
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("coordinator rejected request: %s", rejection(resp, data))
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				lastErr = fmt.Errorf("bad coordinator response: %w", err)
				continue // response corrupted in flight: retry
			}
		}
		return nil
	}
}
