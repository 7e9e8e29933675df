package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"sdpopt"
)

// system is one in-process optimizer service configured as `sdplab serve`
// configures it: a process-wide default observer, a plan cache reporting to
// it, and the shadow regret layer only where the workload asks.
type system struct {
	srv   *sdpopt.Server
	cache *sdpopt.PlanCache
	// url is set once the server listens on loopback.
	url string
}

// shadowSampleRate is the share of computed serves the shadow regret layer
// re-optimizes on workloads that turn it on.
const shadowSampleRate = 0.25

// newSystem builds the service. withObs false builds it with no observer at
// all, for the observer-overhead measurement; the caller then also clears
// the process-wide default around its calls.
func newSystem(cat *sdpopt.Catalog, w *workload, withObs bool) (*system, error) {
	var ob *sdpopt.Observer
	if withObs {
		ob = sdpopt.NewObserver()
		sdpopt.SetDefaultObserver(ob)
	}
	cache := sdpopt.NewPlanCache(sdpopt.PlanCacheOptions{MaxEntries: w.cacheEntries, Obs: ob})
	var shadow *sdpopt.RegretOptions
	if w.shadow {
		shadow = &sdpopt.RegretOptions{SampleRate: shadowSampleRate, Workers: 1}
	}
	srv, err := sdpopt.NewServer(sdpopt.ServerOptions{Cat: cat, Cache: cache, Obs: ob, Regret: shadow})
	if err != nil {
		return nil, err
	}
	return &system{srv: srv, cache: cache}, nil
}

func (s *system) listen() error {
	addr, err := s.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + addr + "/optimize"
	return nil
}

// close stops the listener and the shadow workers and waits for both.
func (s *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// drainShadow waits until the shadow layer has finished the jobs the warm-up
// queued, so that measurement starts with the router's regret view settled
// and no leftover background work.
func (s *system) drainShadow() error {
	if s.srv.Regret() == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return s.srv.Regret().Drain(ctx)
}

// newClient returns an HTTP client holding at most conns connections to the
// service, all kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends one request body and decodes the answer into resp, reusing buf
// for the response bytes.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer, resp *optimizeResponse) (int, error) {
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = io.Copy(buf, r.Body)
	r.Body.Close()
	if err != nil {
		return r.StatusCode, err
	}
	*resp = optimizeResponse{}
	if err := json.Unmarshal(buf.Bytes(), resp); err != nil {
		return r.StatusCode, fmt.Errorf("decode response: %w", err)
	}
	return r.StatusCode, nil
}
