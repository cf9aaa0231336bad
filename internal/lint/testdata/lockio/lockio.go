// Fixture for the lockio analyzer: checked as-if it were a fleet
// package (repro/internal/fleet).
package fixture

import (
	"encoding/json"
	"os"
	"sync"

	"repro/internal/measure"
)

type coord struct {
	mu    sync.Mutex
	state map[string]int
}

func (c *coord) directUnderLock() {
	c.mu.Lock()
	os.WriteFile("x", nil, 0o644) // want `I/O call os\.WriteFile while c\.mu is held`
	c.mu.Unlock()
}

// afterUnlock does the write outside the critical section — the fix the
// analyzer steers toward.
func (c *coord) afterUnlock() {
	c.mu.Lock()
	c.state["a"]++
	c.mu.Unlock()
	_ = os.WriteFile("x", nil, 0o644)
}

// persist reaches I/O transitively; its callers inherit the charge.
func persist(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile("state.json", data, 0o644)
}

func (c *coord) transitiveUnderDefer(v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state["a"]++
	persist(v) // want `I/O call persist \(which reaches encoding/json\.Marshal\) while c\.mu is held`
}

func (c *coord) decodeUnderLock(dec *json.Decoder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var v map[string]int
	dec.Decode(&v) // want `I/O call \(Decoder\)\.Decode while c\.mu is held`
}

// shardUnderLock decodes and merges committed shards inside the critical
// section: linear in their samples, and every lease poll waits for it.
func (c *coord) shardUnderLock(data []byte) (measure.CampaignResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := measure.DecodeCampaignResult(data) // want `I/O call repro/internal/measure\.DecodeCampaignResult while c\.mu is held`
	if err != nil {
		return res, err
	}
	c.state["shards"]++
	return measure.MergeCampaignResults(res, res) // want `I/O call repro/internal/measure\.MergeCampaignResults while c\.mu is held`
}

// shardOutsideLock is the shape the coordinator uses: decode first, take
// the lock only to record the result. The header check is O(1) and may
// sit anywhere.
func (c *coord) shardOutsideLock(data []byte) error {
	if _, err := measure.DecodeCampaignResult(data); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := measure.ShardFingerprint(data); err != nil {
		return err
	}
	c.state["shards"]++
	return nil
}

// spawnUnderLock hands the I/O to another goroutine, which runs outside
// this critical section.
func (c *coord) spawnUnderLock() {
	c.mu.Lock()
	go persist(c.state)
	c.mu.Unlock()
}

// pureUnderLock holds the lock around in-memory work only.
func (c *coord) pureUnderLock(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state[k]++
	return c.state[k]
}
