package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"chaseci/internal/api"
	"chaseci/internal/queue"
	"chaseci/internal/sched"
	"chaseci/internal/service"
)

// tenantUsers are the four logged-in identities; anonymous access is off.
var tenantUsers = []string{"ada@ucsd.edu", "grace@sdsc.edu", "edsger@ucsd.edu", "barbara@sdsc.edu"}

// sut is one system under test: a runner behind a gateway, built from the
// public constructors with the defaults `chased serve` uses, served on
// loopback TCP. The plain server is the gateway itself; the traced server is
// the same gateway behind the tracing middleware, so measured slices never
// pass through tracing code.
type sut struct {
	store  *queue.Store
	reg    *service.Registry
	runner *service.Runner
	plain  *httptest.Server
	traced *httptest.Server
	tokens []string // "Bearer <token>", one per tenantUsers entry

	tr       *tracer
	wl       uint8
	original map[api.Kind]service.Handler
}

func newSUT(cluster bool, seed uint64, tr *tracer, wl uint8) (*sut, error) {
	s := &sut{store: queue.NewStore(), reg: service.DefaultRegistry(), tr: tr, wl: wl}
	if cluster {
		s.runner = service.NewClusterRunnerConfigured(s.reg, s.store, sched.DefaultFabric(), service.RunnerConfig{})
	} else {
		s.runner = service.NewRunnerConfigured(s.reg, s.store, service.RunnerConfig{})
	}
	gw := service.NewGateway(s.runner, service.GatewayOptions{
		Providers: map[string]string{"ucsd.edu": "UCSD", "sdsc.edu": "SDSC"},
		TokenSeed: seed,
	})
	s.plain = httptest.NewServer(gw)
	if tr != nil {
		s.traced = httptest.NewServer(tr.middleware(wl, gw))
		s.original = make(map[api.Kind]service.Handler)
		for _, k := range s.reg.Kinds() {
			s.original[k], _ = s.reg.Handler(k)
		}
	}
	for _, user := range tenantUsers {
		tok, err := login(s.plain.URL, user)
		if err != nil {
			s.close()
			return nil, err
		}
		s.tokens = append(s.tokens, "Bearer "+tok)
	}
	return s, nil
}

// setTracing swaps the registry's handlers for their span-wrapped versions
// (or back). Call it only between slices, with no job in flight.
func (s *sut) setTracing(on bool) {
	for k, h := range s.original {
		if on {
			h = s.tr.wrap(s.wl, h)
		}
		s.reg.Register(k, h)
	}
}

func (s *sut) url(traced bool) string {
	if traced {
		return s.traced.URL
	}
	return s.plain.URL
}

func (s *sut) close() {
	s.plain.Close()
	if s.traced != nil {
		s.traced.Close()
	}
	s.runner.Close()
}

func login(base, user string) (string, error) {
	body, _ := json.Marshal(map[string]string{"user": user})
	resp, err := http.Post(base+"/v1/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("login %s: %w", user, err)
	}
	defer resp.Body.Close()
	var out struct {
		Token string `json:"token"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || out.Token == "" {
		return "", fmt.Errorf("login %s: status %d %s", user, resp.StatusCode, out.Error)
	}
	return out.Token, nil
}
