package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"chaseci/internal/api"
)

// opTimeout bounds one job's submit-to-terminal wait; a job past it counts
// as failed instead of hanging the run.
const opTimeout = 60 * time.Second

var errShed = errors.New("refused with 429")

// client is one closed-loop load-generating client: one keep-alive
// connection, one request in flight at a time.
type client struct {
	hc   *http.Client
	base string
	poll time.Duration
	buf  bytes.Buffer

	// Tracing state: nil tracer on measured slices.
	tr *tracer
	wl uint8

	// Counters for the current slice.
	jobs, polls, shed      int64
	wireBytes              int64 // submit + ack + result bodies; polls excluded
	replicaLocal, requeues int64
}

func newClient(poll time.Duration, wl uint8) *client {
	return &client{
		poll: poll,
		wl:   wl,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) resetCounters() {
	c.jobs, c.polls, c.shed = 0, 0, 0
	c.wireBytes = 0
	c.replicaLocal, c.requeues = 0, 0
}

// do issues one request and returns the status and body; the body is valid
// until the next call.
func (c *client) do(method, path, token string, body []byte, tag uint32) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", token)
	if tag != 0 {
		req.Header.Set(tagHeader, tagName(tag))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// pending is a submitted job the client has yet to collect.
type pending struct {
	id    string
	token string
	tag   uint32
	unit  uint32
	t0    time.Time
	t0ns  int64
	wire  int64 // submit + ack body bytes
}

// submit posts one job. On a traced slice the body gains a unique name so
// the server-side spans can be matched to this job.
func (c *client) submit(token string, body []byte, unit uint32) (*pending, error) {
	p := &pending{token: token, unit: unit}
	if c.tr != nil {
		p.tag = c.tr.nextTag()
		named := make([]byte, 0, len(body)+24)
		named = append(named, `{"name":"`...)
		named = append(named, tagName(p.tag)...)
		named = append(named, `",`...)
		body = append(named, body[1:]...)
		p.t0ns = c.tr.now()
	}
	p.t0 = time.Now()
	code, resp, err := c.do(http.MethodPost, "/v1/jobs", token, body, p.tag)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	c.jobs++
	p.wire = int64(len(body) + len(resp))
	c.wireBytes += p.wire
	if code == http.StatusTooManyRequests {
		c.shed++
		return nil, errShed
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(resp))
	}
	var ack api.SubmitResponse
	if err := json.Unmarshal(resp, &ack); err != nil || ack.ID == "" {
		return nil, fmt.Errorf("submit: bad ack %q", resp)
	}
	p.id = ack.ID
	if c.tr != nil {
		c.tr.add(rec{kind: spClientSubmit, wl: c.wl, job: p.tag, start: p.t0ns, end: c.tr.now()})
	}
	return p, nil
}

// collect polls the job to a terminal state (first poll at once, then at
// the workload's cadence), fetches the result envelope, and returns it with
// the job's latency from its own POST and its submit+ack+result wire bytes.
func (c *client) collect(p *pending) (*api.ResultEnvelope, time.Duration, int64, error) {
	var waitStart int64
	if c.tr != nil {
		waitStart = c.tr.now()
	}
	deadline := p.t0.Add(opTimeout)
	path := "/v1/jobs/" + p.id
	for {
		code, resp, err := c.do(http.MethodGet, path, p.token, nil, p.tag)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("poll %s: %w", p.id, err)
		}
		c.polls++
		if code != http.StatusOK {
			return nil, 0, 0, fmt.Errorf("poll %s: status %d: %s", p.id, code, bytes.TrimSpace(resp))
		}
		var st struct {
			State     api.State      `json:"state"`
			Placement *api.Placement `json:"placement"`
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			return nil, 0, 0, fmt.Errorf("poll %s: %w", p.id, err)
		}
		if st.State.Terminal() {
			if st.Placement != nil {
				if st.Placement.Locality == api.LocalityReplicaLocal {
					c.replicaLocal++
				}
				c.requeues += int64(st.Placement.Requeues)
			}
			break
		}
		if time.Now().After(deadline) {
			return nil, 0, 0, fmt.Errorf("job %s still %s after %v", p.id, st.State, opTimeout)
		}
		time.Sleep(c.poll)
	}
	var resStart int64
	if c.tr != nil {
		resStart = c.tr.now()
		c.tr.add(rec{kind: spClientWait, wl: c.wl, job: p.tag, start: waitStart, end: resStart})
	}
	code, resp, err := c.do(http.MethodGet, path+"/result", p.token, nil, p.tag)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("result %s: %w", p.id, err)
	}
	wire := p.wire + int64(len(resp))
	c.wireBytes += int64(len(resp))
	if code != http.StatusOK {
		return nil, 0, 0, fmt.Errorf("result %s: status %d: %s", p.id, code, bytes.TrimSpace(resp))
	}
	env := new(api.ResultEnvelope)
	if err := json.Unmarshal(resp, env); err != nil {
		return nil, 0, 0, fmt.Errorf("result %s: %w", p.id, err)
	}
	lat := time.Since(p.t0)
	if c.tr != nil {
		end := c.tr.now()
		c.tr.add(rec{kind: spClientResult, wl: c.wl, job: p.tag, start: resStart, end: end})
		c.tr.add(rec{kind: spJob, wl: c.wl, job: p.tag, unit: p.unit, start: p.t0ns, end: end})
	}
	return env, lat, wire, nil
}

// run is submit followed by collect.
func (c *client) run(token string, body []byte, unit uint32) (*api.ResultEnvelope, time.Duration, int64, error) {
	p, err := c.submit(token, body, unit)
	if err != nil {
		return nil, 0, 0, err
	}
	return c.collect(p)
}

// metricz fetches the text metrics page, as an operator's scraper would.
func (c *client) metricz(token string) error {
	code, _, err := c.do(http.MethodGet, "/metricz", token, nil, 0)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("metricz: status %d", code)
	}
	return nil
}

// putDataset uploads encoded CDS1 bytes at their content address.
func (c *client) putDataset(token, id string, enc []byte) error {
	code, resp, err := c.do(http.MethodPut, "/v1/datasets/"+id, token, enc, 0)
	if err != nil {
		return fmt.Errorf("put dataset: %w", err)
	}
	if code != http.StatusCreated {
		return fmt.Errorf("put dataset %s: status %d: %s", id, code, bytes.TrimSpace(resp))
	}
	return nil
}
