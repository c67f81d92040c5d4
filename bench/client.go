package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// pollEvery is how often a client re-reads a job's status.
const pollEvery = 2 * time.Millisecond

// client speaks the versioned /v1 API of one maimond.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Timeout: opTimeout}}
}

// do sends one request and decodes a JSON answer into out (when non-nil),
// returning the body size; any status but want is an error with the body.
func (c *client) do(ctx context.Context, method, path string, body io.Reader, want int, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return len(data), fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return len(data), nil
}

func (c *client) ready(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/v1/readyz", nil, http.StatusOK, nil)
	return err
}

// register uploads a CSV file as dataset name.
func (c *client) register(ctx context.Context, name, csvPath string) error {
	f, err := os.Open(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = c.do(ctx, http.MethodPost, "/v1/datasets?name="+url.QueryEscape(name), f, http.StatusCreated, nil)
	return err
}

// jobRun is one job as its client saw it.
type jobRun struct {
	Eps         float64
	Latency     time.Duration // submit sent → result body read
	Done        time.Time     // when the result body had been read
	Status      wire.JobStatus
	Result      wire.JobResult
	ResultBytes int
}

// runJob submits a job, polls it to a terminal state, and fetches the
// result; a job that ends in any state but done is an error.
func (c *client) runJob(ctx context.Context, req wire.JobRequest) (jobRun, error) {
	run := jobRun{Eps: req.Epsilon}
	body, err := json.Marshal(req)
	if err != nil {
		return run, err
	}
	start := time.Now()
	if _, err := c.do(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body), http.StatusAccepted, &run.Status); err != nil {
		return run, err
	}
	for !run.Status.State.Terminal() {
		if time.Since(start) > opTimeout {
			return run, fmt.Errorf("job %s still %s after %s", run.Status.ID, run.Status.State, opTimeout)
		}
		time.Sleep(pollEvery)
		if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+run.Status.ID, nil, http.StatusOK, &run.Status); err != nil {
			return run, err
		}
	}
	if run.Status.State != wire.StateDone {
		return run, fmt.Errorf("job %s (ε=%g) ended %s: %s", run.Status.ID, req.Epsilon, run.Status.State, run.Status.Error)
	}
	run.ResultBytes, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+run.Status.ID+"/result", nil, http.StatusOK, &run.Result)
	run.Done = time.Now()
	run.Latency = run.Done.Sub(start)
	if err == nil && run.Result.Interrupted {
		err = fmt.Errorf("job %s (ε=%g) was interrupted: partial result", run.Status.ID, req.Epsilon)
	}
	return run, err
}

// scrape reads /metrics through the product's own strict parser.
func (c *client) scrape(ctx context.Context) (*obs.Exposition, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	expo, err := obs.ParseExposition(resp.Body)
	return expo, time.Since(start), err
}
