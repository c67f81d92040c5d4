package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// FuzzJobRequest posts arbitrary bodies to POST /v1/jobs over a 4-row
// dataset "d". Every answer must be 202, 400, 404 or 503 with a JSON body
// carrying an id or an error, and every accepted job must reach a
// terminal state.
func FuzzJobRequest(f *testing.F) {
	ts, _ := serveManager(f, service.NewManager(tinyRegistry(f), service.Config{Workers: 1}))
	for _, seed := range []string{
		`{"dataset":"d","epsilon":0.1}`,
		`{"dataset":"d","epsilon":0,"mode":"mvds"}`,
		`{"dataset":"d","epsilon":0.2,"mode":"schemes","timeout_ms":1000,"max_schemes":-1,"workers":2}`,
		`{"dataset":"missing","epsilon":0.1}`,
		`{"dataset":"d","epsilon":-1}`,
		`{"dataset":"d","epsilon":0.1,"disable_pruning":true}`,
		`{"dataset":"d"} trailing`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusNotFound, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q: %s", resp.StatusCode, body, raw)
		}
		var out struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &out); err != nil || (out.ID == "") == (out.Error == "") {
			t.Fatalf("status %d for %q: body %s carries neither an id nor an error alone (%v)", resp.StatusCode, body, raw, err)
		}
		if resp.StatusCode != http.StatusAccepted {
			return
		}
		deadline := time.Now().Add(30 * time.Second)
		for st := jobStatus(t, ts, out.ID); !st.State.Terminal(); st = jobStatus(t, ts, out.ID) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s for %q still %q after 30s", out.ID, body, st.State)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestRemovedFieldsRejected: job and shard bodies are decoded strictly,
// so a client still sending the deleted disable_pruning field gets a 400
// that names it.
func TestRemovedFieldsRejected(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{Workers: 1})
	for _, path := range []string{"/v1/jobs", "/v1/shards"} {
		resp, err := http.Post(ts.URL+path, "application/json",
			strings.NewReader(`{"dataset":"d","epsilon":0.1,"disable_pruning":true}`))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "disable_pruning") {
			t.Fatalf("%s: status %d, body %s; want a 400 naming disable_pruning", path, resp.StatusCode, raw)
		}
	}
}
