// Package auth simulates the CILogon federated authentication layer of
// Section IV: users "log on and claim their identity" through one of
// thousands of campus identity providers rather than creating new accounts,
// and namespace administrators then add authenticated users to their virtual
// clusters. Tokens are opaque, expiring bearer credentials issued against a
// registered provider.
package auth

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"chaseci/internal/sim"
)

// Errors returned by the federation.
var (
	ErrUnknownProvider = errors.New("auth: identity provider not registered")
	ErrBadIdentity     = errors.New("auth: identity does not belong to provider domain")
	ErrBadToken        = errors.New("auth: unknown or malformed token")
	ErrExpiredToken    = errors.New("auth: token expired")
)

// Provider is a federated identity provider (a campus SSO endpoint).
type Provider struct {
	Name   string
	Domain string // email domain it vouches for, e.g. "ucsd.edu"
}

// Identity is a claimed, authenticated identity.
type Identity struct {
	User     string // full identity, e.g. "ialtintas@ucsd.edu"
	Provider string
	IssuedAt time.Duration
}

// Token is an opaque bearer credential.
type Token string

// Federation is the CILogon stand-in: a provider registry plus token
// issuance and validation in virtual time.
type Federation struct {
	clock *sim.Clock
	rng   *sim.RNG
	ttl   time.Duration

	providers map[string]Provider // by domain
	tokens    map[Token]Identity
}

// NewFederation creates a federation whose tokens live for ttl.
func NewFederation(clock *sim.Clock, ttl time.Duration, seed uint64) *Federation {
	if ttl <= 0 {
		ttl = 12 * time.Hour
	}
	return &Federation{
		clock:     clock,
		rng:       sim.NewRNG(seed),
		ttl:       ttl,
		providers: make(map[string]Provider),
		tokens:    make(map[Token]Identity),
	}
}

// RegisterProvider adds an identity provider. Duplicate domains overwrite,
// as a campus re-registering its endpoint would.
func (f *Federation) RegisterProvider(name, domain string) Provider {
	p := Provider{Name: name, Domain: strings.ToLower(domain)}
	f.providers[p.Domain] = p
	return p
}

// Login authenticates user (an email-style identity) against its domain's
// provider and returns a bearer token. Users claim existing identities; no
// account creation happens here, mirroring CILogon's model.
func (f *Federation) Login(user string) (Token, error) {
	at := strings.LastIndexByte(user, '@')
	if at <= 0 || at == len(user)-1 {
		return "", fmt.Errorf("%w: %q", ErrBadIdentity, user)
	}
	domain := strings.ToLower(user[at+1:])
	p, ok := f.providers[domain]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownProvider, domain)
	}
	tok := Token(fmt.Sprintf("tok-%016x%016x", f.rng.Uint64(), f.rng.Uint64()))
	f.tokens[tok] = Identity{User: user, Provider: p.Name, IssuedAt: f.clock.Now()}
	return tok, nil
}

// Validate resolves a token to its identity, rejecting unknown tokens and
// those ttl or more past their IssuedAt.
func (f *Federation) Validate(tok Token) (Identity, error) {
	id, ok := f.tokens[tok]
	if !ok {
		return Identity{}, ErrBadToken
	}
	if f.clock.Now() >= id.IssuedAt+f.ttl {
		return Identity{}, ErrExpiredToken
	}
	return id, nil
}
