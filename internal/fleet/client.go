package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the coordinator protocol. Workers embed one; tests and
// failure injectors use it directly to hold leases without committing.
type Client struct {
	base string
	hc   *http.Client

	// Token, when non-empty, is attached to every request as
	// "Authorization: Bearer <Token>" — required by coordinators built
	// with CoordinatorConfig.Token.
	Token string
}

// ErrUnauthorized marks a 401 from the coordinator: the token is missing
// or wrong. Unlike a transport failure it can never heal by retrying, so
// workers fail immediately instead of burning their retry budgets.
var ErrUnauthorized = errors.New("fleet: coordinator refused the request: missing or wrong bearer token")

// defaultRequestTimeout bounds every protocol exchange when the caller
// does not supply its own http.Client. Without it, a coordinator that
// dies silently (powered-off host, dropped NAT entry — no RST) would
// hang a request forever and the worker's bounded-retry budgets would
// never fire. Two minutes is generous for the largest exchange, a shard
// commit of megabytes over a LAN.
const defaultRequestTimeout = 2 * time.Minute

// NewClient returns a client for the coordinator at baseURL (e.g.
// "http://10.0.0.5:9777"). httpClient nil means a client with
// defaultRequestTimeout; pass an explicit client to tune or remove it.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: defaultRequestTimeout}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient}
}

// doJSON runs one exchange whose request body, if any, is in as JSON.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("fleet: marshal %s request: %w", path, err)
		}
	}
	return c.do(ctx, method, path, "", "application/json", body, out)
}

// do runs one exchange: body (nil for none) goes out verbatim under
// contentType, the JSON response lands in out.
func (c *Client) do(ctx context.Context, method, path, query, contentType string, data []byte, out any) error {
	var body io.Reader
	if data != nil {
		body = bytes.NewReader(data)
	}
	target := c.base + path
	if query != "" {
		target += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	if data != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return fmt.Errorf("%w (%s)", ErrUnauthorized, path)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: %s: coordinator returned %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("fleet: %s: decode response: %w", path, err)
	}
	return nil
}

// Sweep fetches the sweep description.
func (c *Client) Sweep(ctx context.Context) (SweepResponse, error) {
	var out SweepResponse
	err := c.doJSON(ctx, http.MethodGet, PathSweep, nil, &out)
	return out, err
}

// Lease requests one unit of work.
func (c *Client) Lease(ctx context.Context, worker string) (LeaseResponse, error) {
	var out LeaseResponse
	err := c.doJSON(ctx, http.MethodPost, PathLease, LeaseRequest{Worker: worker}, &out)
	return out, err
}

// Renew extends a lease's deadline — the worker heartbeat.
func (c *Client) Renew(ctx context.Context, req RenewRequest) (RenewResponse, error) {
	var out RenewResponse
	err := c.doJSON(ctx, http.MethodPost, PathRenew, req, &out)
	return out, err
}

// Commit ships a finished unit back: the shard (or the unit's error text)
// is the request body as it stands, everything else rides in the query.
func (c *Client) Commit(ctx context.Context, req CommitRequest) (CommitResponse, error) {
	var out CommitResponse
	query, body := req.wire()
	err := c.do(ctx, http.MethodPost, PathCommit, query, "application/octet-stream", body, &out)
	return out, err
}

// Status fetches queue progress.
func (c *Client) Status(ctx context.Context) (StatusResponse, error) {
	var out StatusResponse
	err := c.doJSON(ctx, http.MethodGet, PathStatus, nil, &out)
	return out, err
}
