package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client speaks the coordinator protocol.
type Client struct {
	base string
	hc   *http.Client
}

// defaultRequestTimeout bounds every protocol exchange when the caller
// does not supply its own http.Client, so a coordinator that dies
// silently (no RST) cannot hang a request forever. Two minutes is
// generous for the largest exchange, a shard commit of megabytes over a
// LAN.
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

// post runs one exchange: body goes out verbatim under contentType, the
// JSON response lands in out.
func (c *Client) post(ctx context.Context, path, query, contentType string, body []byte, out any) error {
	target := c.base + path
	if query != "" {
		target += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: %s: coordinator returned %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("fleet: %s: decode response: %w", path, err)
	}
	return nil
}

// Lease requests one unit of work.
func (c *Client) Lease(ctx context.Context, worker string) (LeaseResponse, error) {
	var out LeaseResponse
	body, err := json.Marshal(LeaseRequest{Worker: worker})
	if err != nil {
		return out, fmt.Errorf("fleet: marshal %s request: %w", PathLease, err)
	}
	err = c.post(ctx, PathLease, "", "application/json", body, &out)
	return out, err
}

// Commit ships a finished unit back: the shard is the request body as it
// stands, everything else rides in the query.
func (c *Client) Commit(ctx context.Context, req CommitRequest) (CommitResponse, error) {
	var out CommitResponse
	query, body := req.wire()
	err := c.post(ctx, PathCommit, query, "application/octet-stream", body, &out)
	return out, err
}
